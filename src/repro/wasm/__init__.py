"""A WebAssembly 1.0 (+ multi-value) substrate.

This package is the execution target for lowered RichWasm modules: an AST
(:mod:`repro.wasm.ast`), a validator (:mod:`repro.wasm.validation`), a
pluggable execution-engine layer (:mod:`repro.wasm.engine`: a pre-decoded
flat-code VM — the default — the reference tree-walker, and the compiled
tier of :mod:`repro.wasm.pygen`, which translates flat code to Python
source) behind the :class:`WasmInterpreter` facade
(:mod:`repro.wasm.interpreter`), the flat pre-decoder
(:mod:`repro.wasm.decode`), and a WAT-style printer (:mod:`repro.wasm.text`).
"""

from .ast import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
    MemoryGrow,
    MemorySize,
    PAGE_SIZE,
    Relop,
    StoreI,
    Testop,
    Unop,
    ValType,
    WasmData,
    WasmFuncType,
    WasmFunction,
    WasmFunctionDecl,
    WasmGlobal,
    WasmImportedFunction,
    WasmMemory,
    WasmModule,
    WasmTable,
    WBlock,
    WBr,
    WBrIf,
    WBrTable,
    WCall,
    WCallIndirect,
    WDrop,
    WIf,
    WInstr,
    WLoop,
    WNop,
    WReturn,
    WSelect,
    WUnreachable,
    count_instrs,
    function_instruction_count,
)
from .decode import DecodedModule, FlatFunction, decode_function, decode_instance, decode_module
from .engine import (
    DEFAULT_ENGINE,
    ENGINES,
    ExecutionEngine,
    FlatVMEngine,
    TreeWalkingEngine,
    available_engines,
    create_engine,
)
from .interpreter import (
    CodeSnapshot,
    FuncList,
    HostFunction,
    LinearMemory,
    MAX_MEMORY_PAGES,
    WasmInstance,
    WasmInterpreter,
    WasmTrap,
    WasmValue,
)

# pygen registers CompiledPyEngine in ENGINES as an import side effect, so it
# must come after the engine import (it subclasses ExecutionEngine).
from .pygen import CompiledPyEngine, ModuleTranslation, translate_module  # noqa: E402
from .text import format_instr, module_to_wat
from .validation import WasmValidationError, validate_function, validate_module

__all__ = [name for name in dir() if not name.startswith("_")]
