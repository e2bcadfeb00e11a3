#!/usr/bin/env python3
"""Fail when a weak function in a vector unit's object holds a VEX/EVEX instruction.

The vector kernels' units (src/dsp/simd/avx2.cpp and avx512.cpp) are
compiled for the baseline ISA and turn their ISA on only around their
avx2:: and avx512:: bodies. Every inline function they instantiate
outside them (the contract failure path, libstdc++ templates) is emitted
as a weak symbol that the linker may keep for the whole program, so such
a copy must contain no VEX- or EVEX-encoded instruction: otherwise a CPU
without AVX (or AVX-512) would fault in code that has nothing to do with
the kernels.

An instruction is VEX- or EVEX-encoded when its first byte is c4, c5 or 62
(in 64-bit mode these bytes are no legacy opcode; legacy prefixes cannot
precede a VEX prefix).

Usage:  scripts/check_weak_isa.py OBJECT...   (only the vector units'
        objects, avx2.cpp.o and avx512.cpp.o (or .obj), are checked; the
        others are ignored, so a target's whole $<TARGET_OBJECTS:...> list
        can be passed, ';'-separated too)
Exit:   0 clean, 1 a weak function holds VEX code, 2 bad invocation or a
        missing binutils tool.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

VEX_FIRST_BYTES = {"c4", "c5", "62"}
VECTOR_UNITS = {f"{unit}.cpp.{ext}" for unit in ("avx2", "avx512") for ext in ("o", "obj")}
FUNC_HEADER = re.compile(r"^[0-9a-f]+ <(?P<sym>[^>]+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t(?P<bytes>(?:[0-9a-f]{2} )+)\s*\t?(?P<text>.*)$")


def weak_functions(obj: Path) -> set[str]:
    out = subprocess.run(["nm", "--defined-only", str(obj)], check=True,
                         capture_output=True, text=True).stdout
    weak = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("W", "V"):
            weak.add(parts[2])
    return weak


def vex_in_weak(obj: Path) -> list[str]:
    weak = weak_functions(obj)
    out = subprocess.run(["objdump", "-d", "-w", str(obj)], check=True,
                         capture_output=True, text=True).stdout
    problems = []
    current = None
    for line in out.splitlines():
        header = FUNC_HEADER.match(line)
        if header:
            current = header.group("sym")
            continue
        if current not in weak:
            continue
        insn = INSN.match(line)
        if insn and insn.group("bytes").split()[0] in VEX_FIRST_BYTES:
            problems.append(f"{obj.name}: weak {current}: {insn.group('text').strip()}")
    return problems


def main(argv: list[str]) -> int:
    # CMake passes $<TARGET_OBJECTS:...> as one ';'-separated argument.
    paths = [Path(p) for a in argv[1:] for p in a.split(";") if p]
    objects = [p for p in paths if p.name in VECTOR_UNITS]
    if not objects:
        print("check_weak_isa: no vector unit's object among the arguments", file=sys.stderr)
        return 2
    for tool in ("nm", "objdump"):
        if shutil.which(tool) is None:
            print(f"check_weak_isa: {tool} not found", file=sys.stderr)
            return 2
    problems = []
    for obj in objects:
        if not obj.is_file():
            print(f"check_weak_isa: {obj}: no such object", file=sys.stderr)
            return 2
        problems += vex_in_weak(obj)
    for p in problems:
        print(p)
    print(f"check_weak_isa: {len(problems)} VEX instruction(s) in weak functions")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
