"""Independent Python models of the corpus programs and of derived
quantities (checksum folds, layout positions).  Tests compare package
output against these; the models never import package internals."""

import zlib

M64 = (1 << 64) - 1


def signed64(v):
    v &= M64
    return v - (1 << 64) if v >> 63 else v


def xor_fold16(elements):
    """Checksum model: XOR of all 16-bit elements."""
    h = 0
    for e in elements:
        h ^= e
    return h & 0xFFFF


# ---- fixed-width arithmetic models -----------------------------------------
# Operands are unsigned cell values and may be wider than the type's bits
# (an i1 cell is a byte).  Arithmetic reads the low `bits` of each operand
# as a two's-complement number; bitwise operations, shift amounts and the
# equality and unsigned compares read the whole cell.

def signed(v, bits):
    v %= 1 << bits
    return v - (1 << bits) if v >> (bits - 1) else v


def binary_model(kind, a, b, bits):
    """Result of a binary operation, or None where it traps (a zero
    divisor)."""
    m = 1 << bits
    if kind in ("add", "sub", "mul"):
        return {"add": a + b, "sub": a - b, "mul": a * b}[kind] % m
    if kind in ("and", "or", "xor"):
        return {"and": a & b, "or": a | b, "xor": a ^ b}[kind]
    if kind in ("sdiv", "srem"):
        sa, sb = signed(a, bits), signed(b, bits)
        if sb == 0:
            return None
        q = sa // sb
        if q < 0 and q * sb != sa:
            q += 1                      # round toward zero, not down
        return (q if kind == "sdiv" else sa - q * sb) % m
    if kind == "shl":
        return ((a % m) << min(b, bits)) % m
    if kind == "lshr":
        return (a % m) >> b
    if kind == "ashr":
        return (signed(a, bits) >> b) % m
    raise ValueError(kind)


def icmp_model(pred, a, b, bits):
    if pred.startswith("s"):
        a, b = signed(a, bits), signed(b, bits)
    relation = pred if pred in ("eq", "ne") else pred[1:]
    return int({"eq": a == b, "ne": a != b, "lt": a < b, "le": a <= b,
                "gt": a > b, "ge": a >= b}[relation])


def cast_model(kind, value, src_bits, dst_bits):
    if kind == "zext":
        return value % (1 << src_bits)
    if kind == "sext":
        return signed(value, src_bits) % (1 << dst_bits)
    if kind == "trunc":
        return value % (1 << dst_bits)
    raise ValueError(kind)


# ---- corpus program models -------------------------------------------------

def fib_model(inputs):
    n = inputs[0]
    if n <= 0:
        f = n
    else:
        a, b = 0, 1
        for _ in range(n - 1):
            a, b = b, a + b
        f = b
    return 0, [f, f]


def loop_sum_model(inputs):
    n = inputs[0]
    acc = 0
    for i in range(n):
        acc = (((i * i) ^ acc) + i) & M64
    s = acc
    m = ((((s << 7) & M64) ^ (s >> 13)) + s) & M64
    return signed64(s ^ m), [signed64(s), signed64(m)]


def qsort_model(inputs):
    n, seed = inputs
    nn = min(max(n, 1), 256)
    sd = seed & M64
    arr = []
    for _ in range(nn):
        sd = (sd * 6364136223846793005 + 1442695040888963407) & M64
        arr.append((sd >> 16) % 100000)
    acc = 0
    for v in sorted(arr):
        acc = (acc * 31 + v) & M64
    return signed64(acc), [signed64(acc)]


def crc32_model(inputs):
    n = inputs[0]
    data = bytes(b & 0xFF for b in inputs[1:1 + max(n, 0)])
    c = zlib.crc32(data)
    return c, [c]


def sieve_model(inputs):
    n = inputs[0]
    nn = min(max(n, 2), 10000)
    flags = [True] * nn
    p = 2
    while p * p < nn:
        if flags[p]:
            for m in range(p * p, nn, p):
                flags[m] = False
        p += 1
    count = sum(1 for i in range(2, nn) if flags[i])
    r = count * 1000000 + nn
    return r, [r]


def _xorshift(x):
    a = (x << 13) & M64
    b = x ^ a
    d = b ^ (b >> 7)
    e = (d << 17) & M64
    return d ^ e


def strsearch_model(inputs):
    tlen, plen = inputs
    tl = min(max(tlen, 8), 4096)
    pl = min(max(plen, 2), 16)
    sd = 88172645463325252
    text = []
    for _ in range(tl):
        sd = _xorshift(sd)
        text.append(sd & 3)
    pat = []
    for _ in range(pl):
        sd = _xorshift(sd)
        pat.append(sd & 3)
    hits = sum(1 for i in range(tl - pl + 1) if text[i:i + pl] == pat)
    r = hits * 100000 + tl
    return r, [r]


PROGRAM_MODELS = {
    "fib": fib_model,
    "loop_sum": loop_sum_model,
    "qsort": qsort_model,
    "crc32": crc32_model,
    "sieve": sieve_model,
    "strsearch": strsearch_model,
}
