"""Figs. 1 and 3: unsafe ML/L3 interop is caught statically by RichWasm.

Three acts:

1. **Fig. 1** — ML stashes a GC'd reference, the manually-managed client
   frees both its own reference and the stashed copy.  Without linking types
   the two sides do not even agree on the boundary type, so the FFI check
   rejects the program when resolving the import.
2. **Fig. 3 (unsafe)** — the same program written with linking types
   (``(ref int)lin``, ``ref_to_lin``, ``join``/``split``).  The boundary now
   agrees, but ML's ``stash`` both stores and returns the linear reference;
   the compiled RichWasm duplicates a linear value and fails the RichWasm
   type check.
3. **Fig. 3 (repaired)** — ``stash`` consumes the reference and returns
   unit; the program type checks, links, and runs on both the RichWasm
   interpreter and (after lowering) on WebAssembly.

Run with ``python examples/unsafe_interop.py``.
"""

from repro.api import CompileConfig
from repro.core.syntax import NumType, NumV, UnitV
from repro.core.typing import check_module
from repro.core.typing.errors import LinkError, RichWasmTypeError
from repro.ffi import Program, check_link, fig1_unsafe_program, fig3_programs


def act_1_naive_interop() -> None:
    print("=== Fig. 1: naive interop (no linking types) ===")
    scenario = fig1_unsafe_program()
    try:
        check_link(scenario.modules())
    except LinkError as error:
        print("rejected while resolving the ml.stash import:")
        print("   ", str(error)[:200])
    else:
        raise AssertionError("the Fig. 1 program must not link")


def act_2_linking_types_unsafe() -> None:
    print("\n=== Fig. 3: linking types, unsafe stash ===")
    unsafe, _ = fig3_programs()
    # The client side is fine on its own; the ML side duplicates a linear
    # value, which the RichWasm type checker rejects.
    check_module(unsafe.client)
    print("client module type checks on its own")
    try:
        check_module(unsafe.ml)
    except RichWasmTypeError as error:
        print("ml module rejected by the RichWasm type checker:")
        print("   ", type(error).__name__ + ":", str(error)[:160])
    else:
        raise AssertionError("the unsafe stash must not type check")


def act_3_repaired() -> None:
    print("\n=== Fig. 3 (repaired): stash consumes the reference ===")
    _, safe = fig3_programs()
    program = Program(safe.modules())

    instance = program.instantiate()
    instance.invoke("client", "store", [NumV(NumType.I32, 42)])
    taken = instance.invoke("client", "take", [UnitV()])
    print("richwasm interpreter: stored 42, took back", taken[0].value)
    print("heap after run:", instance.store_stats())

    # The facade-era entry point: one config selects the optimization level
    # (and engine/cache policy when needed) instead of per-call keywords.
    wasm = program.instantiate_wasm(config=CompileConfig(opt_level="O1"))
    wasm.invoke("client", "store", [42])
    print("wasm (one shared linear memory): took back", wasm.invoke("client", "take", []))

    # Reading the cell twice is the runtime-checked failure mode the paper
    # describes for ref_to_lin: the second take traps instead of duplicating.
    from repro.core.semantics import Trap

    try:
        instance.invoke("client", "take", [UnitV()])
        instance.invoke("client", "take", [UnitV()])
    except Trap as trap:
        print("second take correctly trapped at runtime:", trap)


def main() -> None:
    act_1_naive_interop()
    act_2_linking_types_unsafe()
    act_3_repaired()


if __name__ == "__main__":
    main()
