"""Flat memory layout for one protected function.

Every SSA value, parameter, constant, allocation and bookkeeping cell is
assigned a byte offset in a single per-activation memory image, addressed
by 16-bit offsets carried in the encoded operand stream.  Order is fixed:
parameters, then constants, then remaining results, then the return cell,
then allocation regions, then guard cells appended as guards are placed.

Constants are baked into the initial image, so their records need no
immediate at run time.  The image template is shared; each activation
copies it, which is what gives allocations fresh storage per call.

Everything but the guard cells depends on the function alone, so one
built layout serves every protection draw: each draw places its guard
cells in a `copy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir.core import IrFunction, TypeTag

MAX_SLOT_START = 0xFFFE      # offsets must encode as 16-bit elements
MAX_IMAGE_SIZE = 0x10000


class LayoutError(Exception):
    pass


@dataclass
class VmLayout:
    fn_name: str
    slots: dict[str, tuple[int, TypeTag]] = field(default_factory=dict)
    regions: dict[str, tuple[int, int, TypeTag]] = field(default_factory=dict)
    param_slots: list[tuple[int, TypeTag]] = field(default_factory=list)
    ret_slot: tuple[int, TypeTag] | None = None
    consts: list[tuple[int, TypeTag, int]] = field(default_factory=list)
    size: int = 0

    def place(self, width: int, what: str, value: str | None = None) -> int:
        """Reserve `width` bytes; returns their offset.  An overflow names
        `what`, then %`value` when given, formatted only then."""
        start = self.size
        if start > MAX_SLOT_START or start + width > MAX_IMAGE_SIZE:
            if value is not None:
                what = f"{what} %{value}"
            if start > MAX_SLOT_START:
                raise LayoutError(
                    f"@{self.fn_name}: {what} would start at byte {start}, "
                    f"beyond the 16-bit offset space")
            raise LayoutError(
                f"@{self.fn_name}: {what} ({width} bytes at {start}) "
                f"overflows the {MAX_IMAGE_SIZE}-byte memory image")
        self.size = start + width
        return start

    def copy(self) -> "VmLayout":
        """A layout to place one draw's guard cells in, leaving this one as
        built.  It shares the slot, region and constant tables, which
        nothing changes once `build_layout` returns."""
        return VmLayout(self.fn_name, self.slots, self.regions,
                        self.param_slots, self.ret_slot, self.consts,
                        self.size)

    def add_guard_pair(self) -> tuple[int, int]:
        """Reserve the (expected, observed) checksum cell pair for one
        guard; returns their offsets."""
        exp = self.place(2, "guard cell")
        run = self.place(2, "guard cell")
        return exp, run


def build_layout(fn: IrFunction) -> VmLayout:
    lay = VmLayout(fn.name)

    for name, tag in fn.params:
        off = lay.place(tag.width, "parameter", name)
        lay.slots[name] = (off, tag)
        lay.param_slots.append((off, tag))

    consts, results, allocas = [], [], []
    for block in fn.blocks:
        for ins in block.instructions:
            if ins.kind == "const":
                consts.append(ins)
            elif ins.kind == "alloca":
                allocas.append(ins)
            elif ins.result is not None:
                results.append(ins)

    for ins in consts:
        off = lay.place(ins.type.width, "constant", ins.result)
        lay.slots[ins.result] = (off, ins.type)
        lay.consts.append((off, ins.type, ins.value))

    for ins in results:
        if ins.kind == "phi":
            raise LayoutError(f"@{fn.name}: phi must be lowered before "
                              "layout")
        tag = TypeTag.I1 if ins.kind == "icmp" else ins.type
        off = lay.place(tag.width, "result", ins.result)
        lay.slots[ins.result] = (off, tag)

    if fn.ret is not None:
        lay.ret_slot = (lay.place(fn.ret.width, "return cell"), fn.ret)

    for ins in allocas:
        width = ins.type.width
        start = lay.place(ins.count * width, "allocation", ins.result)
        lay.regions[ins.result] = (start, ins.count, ins.type)

    return lay


def materialize_image(lay: VmLayout) -> bytearray:
    """Initial memory image: zeroed, constants pre-resolved in place."""
    image = bytearray(lay.size)
    for off, tag, value in lay.consts:
        image[off:off + tag.width] = value.to_bytes(tag.width, "little")
    return image
