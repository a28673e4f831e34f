"""Bit-exact simulation models for the emitter's operator cores.

The emitter maps floating-point IR operations onto vendor-IP operator
cores, written as function calls (``fp_add_64(a, b)``) in the generated
Verilog.  vsim evaluates them here with IEEE-754 semantics via
``struct`` round-trips, matching the functional interpreter bit for bit:
64-bit ops compute in double precision; 32-bit ops compute in double and
round through an f32 pack, exactly like the interpreter's ``round_f32``.

Signed integer arguments (``fp_from_int_*``) are passed as Python ints
already sign-decoded by the rendered expression.
"""

from __future__ import annotations

import struct

from .errors import VsimRuntimeError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _bits_of_f64(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _f64_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _M64))[0]


def _bits_of_f32(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _f32_of_bits(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & _M32))[0]


def _arith64(op):
    def fn(a: int, b: int) -> int:
        x, y = _f64_of_bits(a), _f64_of_bits(b)
        try:
            return _bits_of_f64(op(x, y))
        except ZeroDivisionError as exc:
            raise VsimRuntimeError("fp core: division by zero") from exc

    return fn


def _arith32(op):
    def fn(a: int, b: int) -> int:
        x, y = _f32_of_bits(a), _f32_of_bits(b)
        try:
            return _bits_of_f32(op(x, y))
        except ZeroDivisionError as exc:
            raise VsimRuntimeError("fp core: division by zero") from exc

    return fn


def _cmp64(op):
    return lambda a, b: int(op(_f64_of_bits(a), _f64_of_bits(b)))


def _cmp32(op):
    return lambda a, b: int(op(_f32_of_bits(a), _f32_of_bits(b)))


#: Ordered comparisons, matching the IR's fcmp predicate names.
_CMP_OPS = {
    "oeq": lambda x, y: x == y,
    "one": lambda x, y: x != y,
    "olt": lambda x, y: x < y,
    "ole": lambda x, y: x <= y,
    "ogt": lambda x, y: x > y,
    "oge": lambda x, y: x >= y,
}

#: name -> (function, result width in bits)
INTRINSICS: dict[str, tuple[object, int]] = {
    "fp_add_64": (_arith64(lambda x, y: x + y), 64),
    "fp_sub_64": (_arith64(lambda x, y: x - y), 64),
    "fp_mul_64": (_arith64(lambda x, y: x * y), 64),
    "fp_div_64": (_arith64(lambda x, y: x / y), 64),
    "fp_add_32": (_arith32(lambda x, y: x + y), 32),
    "fp_sub_32": (_arith32(lambda x, y: x - y), 32),
    "fp_mul_32": (_arith32(lambda x, y: x * y), 32),
    "fp_div_32": (_arith32(lambda x, y: x / y), 32),
    # int -> float: the argument is a signed integer.
    "fp_from_int_64": (lambda v: _bits_of_f64(float(v)), 64),
    "fp_from_int_32": (lambda v: _bits_of_f32(float(v)), 32),
    # float -> int: C truncation toward zero, 64-bit two's complement.
    "fp_to_int_64": (lambda b: int(_f64_of_bits(b)) & _M64, 64),
    "fp_to_int_32": (lambda b: int(_f32_of_bits(b)) & _M64, 64),
    "fp_ext_32_64": (lambda b: _bits_of_f64(_f32_of_bits(b)), 64),
    "fp_trunc_64_32": (lambda b: _bits_of_f32(_f64_of_bits(b)), 32),
}
for _pred, _op in _CMP_OPS.items():
    INTRINSICS[f"fp_cmp_{_pred}_64"] = (_cmp64(_op), 1)
    INTRINSICS[f"fp_cmp_{_pred}_32"] = (_cmp32(_op), 1)
