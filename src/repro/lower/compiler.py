"""The RichWasm → WebAssembly compiler (paper §6).

Compilation is *type-directed*: it reads each instruction's operand types
from an annotation stream the RichWasm type checker records through an
observer.  The linked check records one stream per function it checks and
hands them over in an :class:`AnnotationStreams`; the lowering replays
those and runs the checker itself only for a function without a stream (a
per-function ``typecheck`` unit hit, or a bare pre-linked module that was
never checked).  The main translation decisions are:

* **Erasure** — capabilities, ownership tokens, qualifiers, ``mem.pack``,
  ``ref.split``/``join``/``demote``, ``cap.split``/``join``,
  ``rec.fold``/``unfold``, ``qualify`` and ``inst`` have no runtime content
  and compile to nothing.
* **Locals splitting** — every RichWasm local (which can hold values of many
  types over its lifetime, up to its declared slot size) is stored across a
  bank of ``i64`` Wasm locals, one per 32-bit component; ``get_local`` /
  ``set_local`` insert the appropriate conversions.  (The paper bit-packs
  components into exactly the declared size; using one 64-bit local per
  component changes only constant factors.)
* **One flat memory** — both RichWasm memories map into a single Wasm linear
  memory managed by the emitted free-list allocator
  (:mod:`repro.lower.runtime`).  Structs/arrays/variants/packages are laid
  out by :mod:`repro.lower.layout`.
* **Boxing** — pretype variables are represented uniformly as ``i32``
  pointers to heap cells.  Direct calls that instantiate a pretype
  quantifier insert the stack coercions (boxing of arguments, unboxing of
  results) the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.syntax import instructions as ri
from ..core.syntax.instructions import Instr
from ..core.syntax.modules import Function, ImportedFunction, Module
from ..core.syntax.qualifiers import UNR
from ..core.syntax.types import (
    ArrayHT,
    CodeRefT,
    ExHT,
    FunType,
    NumType,
    PretypeIndex,
    ProdT,
    StructHT,
    Type,
    TypeQuant,
    UnitT,
    VarT,
    VariantHT,
    instantiate_funtype,
)
from ..core.typing import (
    InstructionChecker,
    LocalEnv,
    LocalSlot,
    ModuleEnv,
    empty_function_env,
    empty_store_typing,
    module_env_of,
)
from ..core.typing.errors import LoweringError
from ..core.typing.module_typing import function_env_of
from ..core.typing.sizing import size_of_type
from ..obs.metrics import default_registry
from ..wasm.ast import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
    Relop,
    StoreI,
    Testop,
    Unop,
    ValType,
    WasmFuncType,
    WasmFunction,
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
)
from .layout import (
    LENGTH_BYTES,
    TAG_BYTES,
    array_layout,
    layout_bytes,
    lower_numtype,
    lower_type,
    lower_types,
    size_to_bytes,
    struct_layout,
    type_bytes,
    variant_layout,
)
from .runtime import RuntimeLayout, build_free, build_malloc, build_runtime_globals


@dataclass
class LoweringStats:
    """Statistics collected while lowering (used by the LOWER experiment)."""

    richwasm_instructions: int = 0
    wasm_instructions: int = 0
    erased_instructions: int = 0
    boxing_coercions: int = 0
    functions: int = 0


@dataclass
class LoweredModule:
    """The result of lowering: the Wasm module plus bookkeeping.

    When the module was lowered under an optimizing config, ``optimization``
    holds the :class:`repro.opt.OptimizationResult` (per-pass statistics and
    the instruction-count delta) and ``wasm`` is the optimized module.

    ``engine`` records the execution-engine preference threaded through the
    compile entry points (``None`` means the default, the flat VM); it is
    consumed by :meth:`instantiate`.  ``diagnostics`` carries the
    :class:`repro.api.Diagnostics` of the facade call that produced this
    artifact (``None`` off the facade paths).
    """

    wasm: WasmModule
    stats: LoweringStats
    runtime: RuntimeLayout
    global_map: dict[int, tuple[int, list[ValType]]]
    optimization: Optional[object] = None
    engine: Optional[str] = None
    diagnostics: Optional[object] = None

    def instantiate(self, *, host_imports=None, max_steps: Optional[int] = None, engine=None):
        """Instantiate the lowered Wasm on an execution engine.

        Returns ``(interpreter, instance)``.  ``engine`` overrides the
        preference recorded at compile time; both default to the flat VM.
        """

        from ..wasm.interpreter import WasmInterpreter

        interpreter = WasmInterpreter(max_steps=max_steps, engine=engine if engine is not None else self.engine)
        return interpreter, interpreter.instantiate(self.wasm, host_imports)

    def instance_pool(self, **kwargs):
        """An :class:`repro.runtime.InstancePool` recycling instances of this
        lowered module (keyword arguments forwarded to the pool; the
        compile-time engine preference is the default engine)."""

        from ..runtime.pool import InstancePool

        kwargs.setdefault("engine", self.engine)
        return InstancePool(self.wasm, **kwargs)


# One recorded typing fact: ``(instr, stack, local_env)``.  A plain tuple,
# since the observed check records one per instruction.
_Annotation = tuple[Instr, tuple[Type, ...], LocalEnv]


class _AnnotationStream:
    """Per-instruction typing facts recorded by the checker, in traversal order."""

    def __init__(self) -> None:
        self.items: list[_Annotation] = []
        self.cursor = 0

    def record(self, instr: Instr, stack: tuple[Type, ...], local_env: LocalEnv) -> None:
        self.items.append((instr, stack, local_env))

    def next_for(self, instr: Instr) -> _Annotation:
        if self.cursor >= len(self.items):
            raise LoweringError("typing annotation stream exhausted (traversal mismatch)")
        annotation = self.items[self.cursor]
        self.cursor += 1
        if annotation[0] is not instr:
            raise LoweringError(
                f"typing annotation mismatch: expected {type(instr).__name__},"
                f" recorded {type(annotation[0]).__name__}"
            )
        return annotation


class AnnotationStreams:
    """One linked module's annotation streams, from its check to its lowering.

    The linked check fills it through :meth:`observer_for` (the
    ``observer_for`` hook of :func:`repro.core.typing.check_module`); the
    lowering of :attr:`module` then takes each function's stream once.
    Streams are keyed on the ``Function`` object's identity: instructions
    are not interned and :meth:`_AnnotationStream.next_for` checks ``is``,
    so a stream only replays over the body it was recorded on.  A lowering
    of any module other than :attr:`module` ignores the streams, since one
    linked ``Function`` object can sit in two linked modules whose
    environments differ.  Nothing here is cached or pickled.
    """

    def __init__(self) -> None:
        #: The module the streams were recorded over; bound by
        #: :func:`repro.ffi.link.link_modules` once its check passes.
        self.module: Optional[Module] = None
        self._streams: dict[int, tuple[Function, _AnnotationStream]] = {}

    def observer_for(self, function: Function):
        stream = _AnnotationStream()
        self._streams[id(function)] = (function, stream)
        return stream.record

    def take(self, function: Function) -> Optional[_AnnotationStream]:
        """``function``'s stream, removed from the set; ``None`` if it has none."""

        entry = self._streams.pop(id(function), None)
        if entry is None or entry[0] is not function:
            return None
        return entry[1]


# Functions the lowering had to type-check itself, process-wide (see
# :func:`rechecked_functions`).
_RECHECKED = default_registry().counter(
    "lower.rechecked", "functions the lowering type-checked itself (no annotation stream)"
)


def rechecked_functions() -> int:
    """How many functions the lowering has type-checked itself so far."""

    return _RECHECKED.value


# Erased (type-level) instruction classes.
_ERASED = (
    ri.Qualify,
    ri.RecFold,
    ri.RecUnfold,
    ri.MemPack,
    ri.CapSplit,
    ri.CapJoin,
    ri.RefDemote,
    ri.RefSplit,
    ri.RefJoin,
    ri.Inst,
    ri.SeqGroup,
    ri.SeqUngroup,
)


class ModuleLowering:
    """Lower a type-checked RichWasm module to a Wasm module.

    ``annotations`` (an :class:`AnnotationStreams` recorded by the check of
    this very module) supplies the per-function typing facts; a function
    without a stream is type-checked here.
    """

    def __init__(self, module: Module, *, memory_pages: int = 4, unit_cache=None,
                 annotations: Optional[AnnotationStreams] = None) -> None:
        self.module = module
        self.module_env: ModuleEnv = module_env_of(module)
        self.memory_pages = memory_pages
        self.annotations = (
            annotations if annotations is not None and annotations.module is module else None
        )
        # A repro.compilepipe.FunctionUnitCache: reuses per-function lowering
        # artifacts (the WasmFunction plus its statistics contributions)
        # across module versions sharing the same signature environment.
        self.unit_cache = unit_cache
        self.stats = LoweringStats()
        # Layout of the lowered module: user functions keep their indices,
        # the runtime (malloc/free) is appended after them.
        function_count = len(module.functions)
        self.runtime = RuntimeLayout(
            free_list_global=0,
            bump_global=1,
            malloc_index=function_count,
            free_index=function_count + 1,
        )
        # Globals: runtime globals first, then the flattened user globals.
        self.global_map: dict[int, tuple[int, list[ValType]]] = {}
        next_global = 2
        for index, global_decl in enumerate(module.globals):
            layout = lower_type(Type(global_decl.pretype, UNR))
            self.global_map[index] = (next_global, layout)
            next_global += len(layout)

    # -- public API ------------------------------------------------------------

    def lower(self) -> LoweredModule:
        functions: list[object] = []
        for index, decl in enumerate(self.module.functions):
            if isinstance(decl, ImportedFunction):
                functions.append(self._lower_import(decl))
                continue
            functions.append(self._lower_function_cached(decl))
            self.stats.functions += 1

        wasm_module = self._compose_module(functions)
        functions = list(wasm_module.functions)
        for function in functions:
            if isinstance(function, WasmFunction):
                from ..wasm.ast import function_instruction_count

                self.stats.wasm_instructions += function_instruction_count(function)
        self.stats.richwasm_instructions = self.module.instruction_count()
        return LoweredModule(wasm_module, self.stats, self.runtime, self.global_map)

    # -- module composition ------------------------------------------------------

    def _lower_import(self, decl: ImportedFunction) -> WasmImportedFunction:
        functype = self._lower_funtype(decl.funtype)
        return WasmImportedFunction(functype, decl.import_ref.module, decl.import_ref.name, decl.exports)

    def _compose_module(self, functions: list[object]) -> WasmModule:
        """Append the runtime and assemble the final :class:`WasmModule`."""

        functions = list(functions)
        functions.append(build_malloc(self.runtime))
        functions.append(build_free(self.runtime))

        globals_ = build_runtime_globals()
        for index, global_decl in enumerate(self.module.globals):
            _, layout = self.global_map[index]
            # Wasm global initializers must be constant expressions; a single
            # numeric constant lowers directly, anything richer starts as zero
            # and is expected to be set up by an exported init function (our
            # ML code generator follows this convention).
            init = getattr(global_decl, "init", ())
            constant = init[0].value if len(init) == 1 and isinstance(init[0], ri.NumConst) else None
            for position, valtype in enumerate(layout):
                if constant is not None and position == 0:
                    init_value: WInstr = Const(valtype, constant)
                else:
                    init_value = Const(valtype, 0 if valtype.is_integer else 0.0)
                globals_.append(WasmGlobal(valtype, True, (init_value,), name=global_decl.name))

        return WasmModule(
            functions=tuple(functions),
            globals=tuple(globals_),
            memory=WasmMemory(self.memory_pages),
            table=WasmTable(tuple(self.module.table.entries)),
            name=self.module.name,
        )

    # -- function types ----------------------------------------------------------

    def _lower_funtype(self, funtype: FunType) -> WasmFuncType:
        return WasmFuncType(
            tuple(lower_types(funtype.arrow.params)),
            tuple(lower_types(funtype.arrow.results)),
        )

    # -- functions ---------------------------------------------------------------

    def _lower_function(self, function: Function) -> WasmFunction:
        annotations = self.annotations.take(function) if self.annotations is not None else None
        if annotations is None:
            annotations = self._check_function(function)

        compiler = _FunctionCompiler(self, function, annotations)
        return compiler.compile()

    def _check_function(self, function: Function) -> _AnnotationStream:
        """Run the checker over ``function`` to record its annotation stream."""

        _RECHECKED.inc()
        annotations = _AnnotationStream()
        checker = InstructionChecker(
            empty_store_typing([self.module_env]),
            self.module_env,
            observer=annotations.record,
        )
        fenv, params = function_env_of(function.funtype)
        slots = [LocalSlot(p, size_of_type(p, fenv.type_ctx)) for p in params]
        for size in function.locals_sizes:
            slots.append(LocalSlot(Type(UnitT(), UNR), size))
        local_env = LocalEnv(tuple(slots))
        checker.check_body(fenv, local_env, function.body, [], list(function.funtype.arrow.results))
        return annotations

    def _lower_function_cached(self, function: Function) -> WasmFunction:
        """:meth:`_lower_function` through the per-function unit cache.

        The cached artifact is the lowered function *plus* the erasure and
        boxing statistics deltas its compilation contributed, so a reuse
        replays the same :class:`LoweringStats` a fresh compile would
        produce.
        """

        units = self.unit_cache
        if units is None:
            return self._lower_function(function)
        key = units.lower_key(function, self.module)
        cached = units.get("lower", key)
        if cached is None:
            erased_before = self.stats.erased_instructions
            boxing_before = self.stats.boxing_coercions
            lowered = self._lower_function(function)
            cached = (
                lowered,
                self.stats.erased_instructions - erased_before,
                self.stats.boxing_coercions - boxing_before,
            )
            units.put("lower", key, cached)
            return lowered
        lowered, erased_delta, boxing_delta = cached
        self.stats.erased_instructions += erased_delta
        self.stats.boxing_coercions += boxing_delta
        return lowered


class _FunctionCompiler:
    """Compiles one RichWasm function body to a Wasm function."""

    def __init__(self, lowering: ModuleLowering, function: Function, annotations: _AnnotationStream):
        self.lowering = lowering
        self.function = function
        self.annotations = annotations
        self.module_env = lowering.module_env
        self.runtime = lowering.runtime
        self.stats = lowering.stats

        self.param_layout = [lower_type(p) for p in function.funtype.arrow.params]
        self.result_layout = lower_types(function.funtype.arrow.results)
        self.param_valtypes = [v for layout in self.param_layout for v in layout]

        # Local storage banks: one list of i64 Wasm-local indices per RichWasm local.
        self.local_banks: list[list[int]] = []
        self.extra_locals: list[ValType] = []
        next_local = len(self.param_valtypes)

        def new_local(valtype: ValType) -> int:
            nonlocal next_local
            self.extra_locals.append(valtype)
            index = next_local
            next_local += 1
            return index

        self._new_local = new_local

        for param in function.funtype.arrow.params:
            bank_size = max(1, len(lower_type(param)))
            self.local_banks.append([new_local(ValType.I64) for _ in range(bank_size)])
        for size in function.locals_sizes:
            bank_size = self._bank_size_for(size)
            self.local_banks.append([new_local(ValType.I64) for _ in range(bank_size)])

        self._scratch_pool: dict[ValType, list[int]] = {v: [] for v in ValType}
        self._named_scratch: dict[str, int] = {}

    # -- helpers -----------------------------------------------------------------

    def _bank_size_for(self, size) -> int:
        from ..core.syntax.sizes import size_free_vars, eval_size

        if not size_free_vars(size):
            bits = eval_size(size)
            return max(1, (bits + 31) // 32)
        return 4

    def _scratch(self, valtype: ValType, index: int) -> int:
        """A scratch local from the *spill* pool (indices disjoint per spill)."""

        pool = self._scratch_pool[valtype]
        while len(pool) <= index:
            pool.append(self._new_local(valtype))
        return pool[index]

    def _named(self, name: str, valtype: ValType = ValType.I32) -> int:
        """A dedicated scratch local (never shared with the spill pool)."""

        if name not in self._named_scratch:
            self._named_scratch[name] = self._new_local(valtype)
        return self._named_scratch[name]

    # -- value <-> i64 bank conversions ---------------------------------------------

    @staticmethod
    def _to_i64(valtype: ValType) -> list[WInstr]:
        """Instructions converting a value of ``valtype`` on the stack to i64."""

        if valtype is ValType.I64:
            return []
        if valtype is ValType.I32:
            return [Cvtop(ValType.I64, "extend_u", ValType.I32)]
        if valtype is ValType.F32:
            return [Cvtop(ValType.I32, "reinterpret", ValType.F32), Cvtop(ValType.I64, "extend_u", ValType.I32)]
        return [Cvtop(ValType.I64, "reinterpret", ValType.F64)]

    @staticmethod
    def _from_i64(valtype: ValType) -> list[WInstr]:
        """Instructions converting an i64 on the stack back to ``valtype``."""

        if valtype is ValType.I64:
            return []
        if valtype is ValType.I32:
            return [Cvtop(ValType.I32, "wrap", ValType.I64)]
        if valtype is ValType.F32:
            return [Cvtop(ValType.I32, "wrap", ValType.I64), Cvtop(ValType.F32, "reinterpret", ValType.I32)]
        return [Cvtop(ValType.F64, "reinterpret", ValType.I64)]

    # -- compile ------------------------------------------------------------------

    def compile(self) -> WasmFunction:
        body: list[WInstr] = []
        # Prologue: copy the natural Wasm parameters into the i64 banks.
        param_index = 0
        for rw_index, param in enumerate(self.function.funtype.arrow.params):
            layout = self.param_layout[rw_index]
            for component, valtype in enumerate(layout):
                body.append(LocalGet(param_index))
                body.extend(self._to_i64(valtype))
                body.append(LocalSet(self.local_banks[rw_index][component]))
                param_index += 1

        body.extend(self._compile_seq(self.function.body, label_map=[]))

        functype = WasmFuncType(tuple(self.param_valtypes), tuple(self.result_layout))
        return WasmFunction(
            functype=functype,
            locals=tuple(self.extra_locals),
            body=tuple(body),
            name=self.function.name,
            exports=self.function.exports,
        )

    # -- instruction sequences -------------------------------------------------------

    def _compile_seq(self, instrs: Sequence[Instr], label_map: list[int]) -> list[WInstr]:
        out: list[WInstr] = []
        for instr in instrs:
            out.extend(self._compile_instr(instr, label_map))
        return out

    def _compile_instr(self, instr: Instr, label_map: list[int]) -> list[WInstr]:
        _instr, stack, local_env = self.annotations.next_for(instr)

        if isinstance(instr, _ERASED):
            self.stats.erased_instructions += 1
            return []

        # ---- inline values (e ::= v | ...) ----
        from ..core.syntax.values import NumV, UnitV, is_value

        if isinstance(instr, UnitV):
            return []
        if isinstance(instr, NumV):
            return [Const(lower_numtype(instr.numtype), instr.value)]
        if is_value(instr):
            raise LoweringError(f"cannot lower inline value {instr!r} (only unit and numeric literals)")

        # ---- numerics ----
        if isinstance(instr, ri.NumConst):
            return [Const(lower_numtype(instr.numtype), instr.value)]
        if isinstance(instr, ri.NumUnop):
            return [Unop(lower_numtype(instr.numtype), instr.op.value)]
        if isinstance(instr, ri.NumBinop):
            return [Binop(lower_numtype(instr.numtype), instr.op.value)]
        if isinstance(instr, ri.NumTestop):
            return [Testop(lower_numtype(instr.numtype))]
        if isinstance(instr, ri.NumRelop):
            return [Relop(lower_numtype(instr.numtype), instr.op.value)]
        if isinstance(instr, ri.NumCvtop):
            op_map = {
                ri.CvtOp.CONVERT: "convert_s" if instr.target.is_float else ("trunc_s" if instr.source.is_float else "wrap"),
                ri.CvtOp.REINTERPRET: "reinterpret",
                ri.CvtOp.WRAP: "wrap",
                ri.CvtOp.EXTEND_S: "extend_s",
                ri.CvtOp.EXTEND_U: "extend_u",
            }
            return [Cvtop(lower_numtype(instr.target), op_map[instr.op], lower_numtype(instr.source))]

        # ---- parametric ----
        if isinstance(instr, ri.Unreachable):
            return [WUnreachable()]
        if isinstance(instr, ri.Nop):
            return [WNop()]
        if isinstance(instr, ri.Drop):
            top = stack[-1] if stack else Type(UnitT(), UNR)
            return [WDrop() for _ in lower_type(top)]
        if isinstance(instr, ri.Select):
            return self._compile_select(stack)

        # ---- control ----
        if isinstance(instr, ri.Block):
            inner_map = [0] + [d + 1 for d in label_map]
            blocktype = WasmFuncType(tuple(lower_types(instr.arrow.params)), tuple(lower_types(instr.arrow.results)))
            return [WBlock(blocktype, tuple(self._compile_seq(instr.body, inner_map)))]
        if isinstance(instr, ri.Loop):
            inner_map = [0] + [d + 1 for d in label_map]
            blocktype = WasmFuncType(tuple(lower_types(instr.arrow.params)), tuple(lower_types(instr.arrow.results)))
            return [WLoop(blocktype, tuple(self._compile_seq(instr.body, inner_map)))]
        if isinstance(instr, ri.If):
            inner_map = [0] + [d + 1 for d in label_map]
            blocktype = WasmFuncType(tuple(lower_types(instr.arrow.params)), tuple(lower_types(instr.arrow.results)))
            then_body = tuple(self._compile_seq(instr.then_body, inner_map))
            else_body = tuple(self._compile_seq(instr.else_body, inner_map))
            return [WIf(blocktype, then_body, else_body)]
        if isinstance(instr, ri.Br):
            return [WBr(self._depth(instr.depth, label_map))]
        if isinstance(instr, ri.BrIf):
            return [WBrIf(self._depth(instr.depth, label_map))]
        if isinstance(instr, ri.BrTable):
            return [
                WBrTable(
                    tuple(self._depth(d, label_map) for d in instr.depths),
                    self._depth(instr.default, label_map),
                )
            ]
        if isinstance(instr, ri.Return):
            return [WReturn()]

        # ---- locals & globals ----
        if isinstance(instr, ri.GetLocal):
            return self._compile_get_local(instr.index, local_env)
        if isinstance(instr, ri.SetLocal):
            return self._compile_set_local(instr.index, stack[-1])
        if isinstance(instr, ri.TeeLocal):
            out = self._compile_set_local(instr.index, stack[-1])
            # tee keeps the value: reload it from the bank at its new type.
            new_env = local_env.set_type(instr.index, stack[-1])
            out.extend(self._compile_get_local(instr.index, new_env))
            return out
        if isinstance(instr, ri.GetGlobal):
            start, layout = self.lowering.global_map[instr.index]
            return [GlobalGet(start + i) for i in range(len(layout))]
        if isinstance(instr, ri.SetGlobal):
            start, layout = self.lowering.global_map[instr.index]
            return [GlobalSet(start + i) for i in reversed(range(len(layout)))]

        # ---- functions ----
        if isinstance(instr, ri.CodeRefI):
            return [Const(ValType.I32, instr.table_index)]
        if isinstance(instr, ri.Call):
            return self._compile_call(instr)
        if isinstance(instr, ri.CallIndirect):
            return self._compile_call_indirect(stack)

        # ---- existential locations ----
        if isinstance(instr, ri.MemUnpack):
            inner_map = [0] + [d + 1 for d in label_map]
            packed = stack[-1]
            packed_layout = lower_type(packed)
            params_layout = lower_types(instr.arrow.params)
            blocktype = WasmFuncType(
                tuple(params_layout + packed_layout),
                tuple(lower_types(instr.arrow.results)),
            )
            return [WBlock(blocktype, tuple(self._compile_seq(instr.body, inner_map)))]

        # ---- structs ----
        if isinstance(instr, ri.StructMalloc):
            return self._compile_struct_malloc(instr, stack)
        if isinstance(instr, ri.StructFree):
            return [WCall(self.runtime.free_index)]
        if isinstance(instr, ri.StructGet):
            return self._compile_struct_get(instr, stack)
        if isinstance(instr, ri.StructSet):
            return self._compile_struct_set(instr, stack)
        if isinstance(instr, ri.StructSwap):
            return self._compile_struct_swap(instr, stack)

        # ---- variants ----
        if isinstance(instr, ri.VariantMalloc):
            return self._compile_variant_malloc(instr, stack)
        if isinstance(instr, ri.VariantCase):
            return self._compile_variant_case(instr, stack, label_map)

        # ---- arrays ----
        if isinstance(instr, ri.ArrayMalloc):
            return self._compile_array_malloc(instr, stack)
        if isinstance(instr, ri.ArrayGet):
            return self._compile_array_get(stack)
        if isinstance(instr, ri.ArraySet):
            return self._compile_array_set(stack)
        if isinstance(instr, ri.ArrayFree):
            return [WCall(self.runtime.free_index)]

        # ---- existential packages ----
        if isinstance(instr, ri.ExistPack):
            return self._compile_exist_pack(instr, stack)
        if isinstance(instr, ri.ExistUnpack):
            return self._compile_exist_unpack(instr, stack, label_map)

        raise LoweringError(f"no lowering rule for instruction {instr!r}")

    # -- depth bookkeeping -------------------------------------------------------------

    @staticmethod
    def _depth(rw_depth: int, label_map: list[int]) -> int:
        if rw_depth < len(label_map):
            return label_map[rw_depth]
        # A branch past all RichWasm labels targets the function body, which
        # sits the same number of extra Wasm labels away.
        extra = (label_map[-1] - (len(label_map) - 1)) if label_map else 0
        return rw_depth + extra

    # -- select / drop -------------------------------------------------------------------

    def _compile_select(self, stack: Sequence[Type]) -> list[WInstr]:
        # stack: ..., v1, v2, cond(i32)
        value_type = stack[-2] if len(stack) >= 2 else Type(UnitT(), UNR)
        layout = lower_type(value_type)
        if len(layout) == 0:
            return [WDrop()]
        if len(layout) == 1:
            return [WSelect()]
        # Multi-component select: spill both operands and re-push one of them.
        cond = self._named("select_cond")
        out: list[WInstr] = [LocalSet(cond)]
        second = self._spill(layout, base=0)
        out.extend(second.code)
        first = self._spill(layout, base=len(layout))
        out.extend(first.code)
        then_branch = self._reload(first)
        else_branch = self._reload(second)
        out.append(LocalGet(cond))
        out.append(WIf(WasmFuncType((), tuple(layout)), tuple(then_branch), tuple(else_branch)))
        return out

    # -- spill / reload ---------------------------------------------------------------------

    @dataclass
    class _Spilled:
        slots: list[tuple[int, ValType]]
        code: list[WInstr]

    def _spill(self, layout: Sequence[ValType], base: int = 0) -> "_FunctionCompiler._Spilled":
        """Pop a value with the given layout into scratch locals (top first)."""

        slots: list[tuple[int, ValType]] = []
        code: list[WInstr] = []
        counters: dict[ValType, int] = {v: 0 for v in ValType}
        # Allocate scratch indices per valtype; base offsets avoid clobbering
        # other spilled values alive at the same time.
        for valtype in layout:
            slots.append((0, valtype))
        for position in range(len(layout) - 1, -1, -1):
            valtype = layout[position]
            index = self._scratch(valtype, base + counters[valtype])
            counters[valtype] += 1
            slots[position] = (index, valtype)
            code.append(LocalSet(index))
        return self._Spilled(slots, code)

    def _reload(self, spilled: "_FunctionCompiler._Spilled") -> list[WInstr]:
        return [LocalGet(index) for index, _ in spilled.slots]

    # -- locals ---------------------------------------------------------------------------------

    def _compile_get_local(self, index: int, local_env: LocalEnv) -> list[WInstr]:
        ty = local_env.get(index).type
        layout = lower_type(ty)
        bank = self.local_banks[index]
        out: list[WInstr] = []
        for component, valtype in enumerate(layout):
            if component >= len(bank):
                raise LoweringError(
                    f"local {index} bank too small for type {ty} (component {component})"
                )
            out.append(LocalGet(bank[component]))
            out.extend(self._from_i64(valtype))
        return out

    def _compile_set_local(self, index: int, ty: Type) -> list[WInstr]:
        layout = lower_type(ty)
        bank = self.local_banks[index]
        out: list[WInstr] = []
        for component in range(len(layout) - 1, -1, -1):
            valtype = layout[component]
            if component >= len(bank):
                raise LoweringError(
                    f"local {index} bank too small for type {ty} (component {component})"
                )
            out.extend(self._to_i64(valtype))
            out.append(LocalSet(bank[component]))
        return out

    # -- memory access helpers ----------------------------------------------------------------------

    def _store_components(
        self, addr_local: int, offset: int, layout: Sequence[ValType], spilled: "_FunctionCompiler._Spilled"
    ) -> list[WInstr]:
        """Store spilled components at ``addr + offset`` (packed consecutively)."""

        out: list[WInstr] = []
        position = offset
        for (slot_index, valtype) in spilled.slots:
            out.append(LocalGet(addr_local))
            out.append(LocalGet(slot_index))
            out.append(StoreI(valtype, offset=position))
            position += valtype.byte_width
        return out

    def _load_components(self, addr_local: int, offset: int, layout: Sequence[ValType]) -> list[WInstr]:
        out: list[WInstr] = []
        position = offset
        for valtype in layout:
            out.append(LocalGet(addr_local))
            out.append(Load(valtype, offset=position))
            position += valtype.byte_width
        return out

    # -- calls -------------------------------------------------------------------------------------------

    def _compile_call(self, instr: ri.Call) -> list[WInstr]:
        funtype = self.module_env.func(instr.func_index)
        out: list[WInstr] = []
        boxed_params, boxed_results = self._boxed_positions(funtype, instr.indices)
        if boxed_params:
            out.extend(self._box_arguments(funtype, instr.indices, boxed_params))
        out.append(WCall(instr.func_index))
        if boxed_results:
            out.extend(self._unbox_results(funtype, instr.indices, boxed_results))
        return out

    def _boxed_positions(self, funtype: FunType, indices) -> tuple[list[int], list[int]]:
        """Parameter/result positions whose generic type is a bare pretype variable
        being instantiated with a concrete pretype (requiring a stack coercion)."""

        if not funtype.quants or not indices:
            return [], []
        arrow = instantiate_funtype(funtype, indices)
        boxed_params = []
        for position, (generic, concrete) in enumerate(zip(funtype.arrow.params, arrow.params)):
            if isinstance(generic.pretype, VarT) and not isinstance(concrete.pretype, VarT):
                boxed_params.append(position)
        boxed_results = []
        for position, (generic, concrete) in enumerate(zip(funtype.arrow.results, arrow.results)):
            if isinstance(generic.pretype, VarT) and not isinstance(concrete.pretype, VarT):
                boxed_results.append(position)
        return boxed_params, boxed_results

    def _box_arguments(self, funtype: FunType, indices, boxed_params: list[int]) -> list[WInstr]:
        """Box the arguments at ``boxed_params`` (identified by position).

        Arguments sit on the stack in order; we spill them all, box the ones
        that need it and re-push everything.
        """

        arrow = instantiate_funtype(funtype, indices)
        out: list[WInstr] = []
        spills: list[tuple[int, Optional["_FunctionCompiler._Spilled"], Type]] = []
        base = 0
        for position in range(len(arrow.params) - 1, -1, -1):
            ty = arrow.params[position]
            layout = lower_type(ty)
            spilled = self._spill(layout, base=base)
            base += len(layout)
            out.extend(spilled.code)
            spills.append((position, spilled, ty))
        spills.reverse()
        for position, spilled, ty in spills:
            reload_code = self._reload(spilled)
            if position in boxed_params:
                out.extend(self._box_value(ty, reload_code))
                self.stats.boxing_coercions += 1
            else:
                out.extend(reload_code)
        return out

    def _box_value(self, ty: Type, reload_code: list[WInstr]) -> list[WInstr]:
        """Allocate a heap cell and store the (already spilled) value into it."""

        layout = lower_type(ty)
        size = max(layout_bytes(layout), 4)
        addr = self._named("box_addr")
        out: list[WInstr] = [Const(ValType.I32, size), WCall(self.runtime.malloc_index), LocalSet(addr)]
        # reload_code pushes the components; we instead store them one by one.
        position = 0
        for instr_reload, valtype in zip(reload_code, layout):
            out.append(LocalGet(addr))
            out.append(instr_reload)
            out.append(StoreI(valtype, offset=position))
            position += valtype.byte_width
        out.append(LocalGet(addr))
        return out

    def _unbox_results(self, funtype: FunType, indices, boxed_results: list[int]) -> list[WInstr]:
        arrow = instantiate_funtype(funtype, indices)
        out: list[WInstr] = []
        spills: list[tuple[int, "_FunctionCompiler._Spilled", Type]] = []
        base = 0
        for position in range(len(arrow.results) - 1, -1, -1):
            ty = arrow.results[position]
            layout = [ValType.I32] if position in boxed_results else lower_type(ty)
            spilled = self._spill(layout, base=base)
            base += len(layout)
            out.extend(spilled.code)
            spills.append((position, spilled, ty))
        spills.reverse()
        for position, spilled, ty in spills:
            if position in boxed_results:
                addr = spilled.slots[0][0]
                out.extend(self._load_components(addr, 0, lower_type(ty)))
                self.stats.boxing_coercions += 1
            else:
                out.extend(self._reload(spilled))
        return out

    def _compile_call_indirect(self, stack: Sequence[Type]) -> list[WInstr]:
        coderef_type = stack[-1]
        if not isinstance(coderef_type.pretype, CodeRefT):
            raise LoweringError(f"call_indirect target is not a coderef: {coderef_type}")
        funtype = coderef_type.pretype.funtype
        wasm_type = WasmFuncType(
            tuple(lower_types(funtype.arrow.params)),
            tuple(lower_types(funtype.arrow.results)),
        )
        return [WCallIndirect(wasm_type)]

    # -- structs --------------------------------------------------------------------------------------------

    def _compile_struct_malloc(self, instr: ri.StructMalloc, stack: Sequence[Type]) -> list[WInstr]:
        field_count = len(instr.sizes)
        field_types = list(stack[len(stack) - field_count:])
        slot_bytes = [size_to_bytes(size) for size in instr.sizes]
        total = max(sum(slot_bytes), 4)

        out: list[WInstr] = []
        spills: list["_FunctionCompiler._Spilled"] = []
        base = 0
        for ty in reversed(field_types):
            layout = lower_type(ty)
            spilled = self._spill(layout, base=base)
            base += len(layout)
            out.extend(spilled.code)
            spills.append(spilled)
        spills.reverse()

        addr = self._named("heap_addr")
        out.append(Const(ValType.I32, total))
        out.append(WCall(self.runtime.malloc_index))
        out.append(LocalTee(addr))
        offset = 0
        for spilled, ty, slot in zip(spills, field_types, slot_bytes):
            out.extend(self._store_components(addr, offset, lower_type(ty), spilled))
            offset += slot
        return out

    def _struct_layout_from(self, ref_type: Type):
        heaptype = ref_type.pretype.heaptype  # type: ignore[union-attr]
        if not isinstance(heaptype, StructHT):
            raise LoweringError(f"expected a struct reference, found {ref_type}")
        return struct_layout(heaptype)

    def _compile_struct_get(self, instr: ri.StructGet, stack: Sequence[Type]) -> list[WInstr]:
        layout = self._struct_layout_from(stack[-1])
        field = layout.fields[instr.index]
        addr = self._named("heap_addr")
        out: list[WInstr] = [LocalTee(addr)]
        out.extend(self._load_components(addr, field.offset, lower_type(field.type)))
        return out

    def _compile_struct_set(self, instr: ri.StructSet, stack: Sequence[Type]) -> list[WInstr]:
        ref_type = stack[-2]
        value_type = stack[-1]
        layout = self._struct_layout_from(ref_type)
        field = layout.fields[instr.index]
        value_layout = lower_type(value_type)
        spilled = self._spill(value_layout)
        addr = self._named("heap_addr")
        out: list[WInstr] = list(spilled.code)
        out.append(LocalTee(addr))
        out.extend(self._store_components(addr, field.offset, value_layout, spilled))
        return out

    def _compile_struct_swap(self, instr: ri.StructSwap, stack: Sequence[Type]) -> list[WInstr]:
        ref_type = stack[-2]
        value_type = stack[-1]
        layout = self._struct_layout_from(ref_type)
        field = layout.fields[instr.index]
        value_layout = lower_type(value_type)
        spilled = self._spill(value_layout)
        addr = self._named("heap_addr")
        out: list[WInstr] = list(spilled.code)
        out.append(LocalTee(addr))
        # Load the old value first, then overwrite the slot.
        out.extend(self._load_components(addr, field.offset, lower_type(field.type)))
        out.extend(self._store_components(addr, field.offset, value_layout, spilled))
        return out

    # -- variants --------------------------------------------------------------------------------------------

    def _compile_variant_malloc(self, instr: ri.VariantMalloc, stack: Sequence[Type]) -> list[WInstr]:
        layout = variant_layout(VariantHT(tuple(instr.cases)))
        payload_type = instr.cases[instr.tag]
        payload_layout = lower_type(payload_type)
        spilled = self._spill(payload_layout)
        addr = self._named("heap_addr")
        out: list[WInstr] = list(spilled.code)
        out.append(Const(ValType.I32, max(layout.total_bytes, 4)))
        out.append(WCall(self.runtime.malloc_index))
        out.append(LocalTee(addr))
        out.append(LocalGet(addr))
        out.append(Const(ValType.I32, instr.tag))
        out.append(StoreI(ValType.I32, offset=0))
        out.extend(self._store_components(addr, layout.tag_bytes, payload_layout, spilled))
        return out

    def _compile_variant_case(
        self, instr: ri.VariantCase, stack: Sequence[Type], label_map: list[int]
    ) -> list[WInstr]:
        if not isinstance(instr.heaptype, VariantHT):
            raise LoweringError("variant.case annotation must be a variant heap type")
        layout = variant_layout(instr.heaptype)
        params = list(instr.arrow.params)
        results_layout = lower_types(instr.arrow.results)
        from ..core.syntax.qualifiers import QualConst

        linear_flavour = instr.qual == QualConst.LIN

        out: list[WInstr] = []
        # Spill the block parameters (they sit above the reference).
        param_spills: list["_FunctionCompiler._Spilled"] = []
        base = 0
        for ty in reversed(params):
            spilled = self._spill(lower_type(ty), base=base)
            base += len(lower_type(ty))
            out.extend(spilled.code)
            param_spills.append(spilled)
        param_spills.reverse()

        addr = self._named("heap_addr")
        if linear_flavour:
            out.append(LocalSet(addr))  # consume the reference
        else:
            out.append(LocalTee(addr))  # keep it on the stack, below the results

        arms: list[WInstr] = []
        inner_map = [1] + [d + 2 for d in label_map]
        for tag, (case_type, branch) in enumerate(zip(instr.heaptype.cases, instr.branches)):
            arm_body: list[WInstr] = []
            for spilled in param_spills:
                arm_body.extend(self._reload(spilled))
            arm_body.extend(self._load_components(addr, layout.tag_bytes, lower_type(case_type)))
            if linear_flavour:
                arm_body.append(LocalGet(addr))
                arm_body.append(WCall(self.runtime.free_index))
            arm_body.extend(self._compile_seq(branch, inner_map))
            arm_body.append(WBr(1))
            arms.append(LocalGet(addr))
            arms.append(Load(ValType.I32, offset=0))
            arms.append(Const(ValType.I32, tag))
            arms.append(Relop(ValType.I32, "eq"))
            arms.append(WIf(WasmFuncType((), ()), tuple(arm_body), ()))
        arms.append(WUnreachable())
        out.append(WBlock(WasmFuncType((), tuple(results_layout)), tuple(arms)))
        return out

    # -- arrays ----------------------------------------------------------------------------------------------

    def _compile_array_malloc(self, instr: ri.ArrayMalloc, stack: Sequence[Type]) -> list[WInstr]:
        element_type = stack[-2]
        element_layout = lower_type(element_type)
        element_bytes = max(layout_bytes(element_layout), 1)

        length = self._named("array_len")
        addr = self._named("heap_addr")
        counter = self._named("array_counter")

        out: list[WInstr] = [LocalSet(length)]
        spilled = self._spill(element_layout)
        out.extend(spilled.code)
        # size = header + length * element_bytes
        out.append(LocalGet(length))
        out.append(Const(ValType.I32, element_bytes))
        out.append(Binop(ValType.I32, "mul"))
        out.append(Const(ValType.I32, LENGTH_BYTES))
        out.append(Binop(ValType.I32, "add"))
        out.append(WCall(self.runtime.malloc_index))
        out.append(LocalTee(addr))
        # store the length header
        out.append(LocalGet(addr))
        out.append(LocalGet(length))
        out.append(StoreI(ValType.I32, offset=0))
        # fill loop: for counter in 0..length
        elem_addr = self._named("elem_addr")
        fill_body: list[WInstr] = [
            LocalGet(counter), LocalGet(length), Relop(ValType.I32, "ge_u"), WBrIf(1),
            LocalGet(addr),
            LocalGet(counter), Const(ValType.I32, element_bytes), Binop(ValType.I32, "mul"),
            Binop(ValType.I32, "add"),
            LocalSet(elem_addr),
        ]
        fill_body.extend(self._store_components(elem_addr, LENGTH_BYTES, element_layout, spilled))
        fill_body.extend([
            LocalGet(counter), Const(ValType.I32, 1), Binop(ValType.I32, "add"), LocalSet(counter),
            WBr(0),
        ])
        out.append(Const(ValType.I32, 0))
        out.append(LocalSet(counter))
        out.append(WBlock(WasmFuncType((), ()), (WLoop(WasmFuncType((), ()), tuple(fill_body)),)))
        return out

    def _array_element(self, ref_type: Type):
        heaptype = ref_type.pretype.heaptype  # type: ignore[union-attr]
        if not isinstance(heaptype, ArrayHT):
            raise LoweringError(f"expected an array reference, found {ref_type}")
        return array_layout(heaptype)

    def _bounds_check(self, addr: int, index: int) -> list[WInstr]:
        return [
            LocalGet(index),
            LocalGet(addr), Load(ValType.I32, offset=0),
            Relop(ValType.I32, "ge_u"),
            WIf(WasmFuncType((), ()), (WUnreachable(),), ()),
        ]

    def _compile_array_get(self, stack: Sequence[Type]) -> list[WInstr]:
        ref_type = stack[-2]
        layout = self._array_element(ref_type)
        element_layout = lower_type(layout.element_type)
        index = self._named("array_index")
        addr = self._named("heap_addr")
        elem_addr = self._named("elem_addr")
        out: list[WInstr] = [LocalSet(index), LocalTee(addr)]
        out.extend(self._bounds_check(addr, index))
        out.extend([
            LocalGet(addr),
            LocalGet(index), Const(ValType.I32, layout.element_bytes), Binop(ValType.I32, "mul"),
            Binop(ValType.I32, "add"),
            LocalSet(elem_addr),
        ])
        out.extend(self._load_components(elem_addr, layout.header_bytes, element_layout))
        return out

    def _compile_array_set(self, stack: Sequence[Type]) -> list[WInstr]:
        ref_type = stack[-3]
        value_type = stack[-1]
        layout = self._array_element(ref_type)
        value_layout = lower_type(value_type)
        index = self._named("array_index")
        addr = self._named("heap_addr")
        elem_addr = self._named("elem_addr")
        spilled = self._spill(value_layout)
        out: list[WInstr] = list(spilled.code)
        out.append(LocalSet(index))
        out.append(LocalTee(addr))
        out.extend(self._bounds_check(addr, index))
        out.extend([
            LocalGet(addr),
            LocalGet(index), Const(ValType.I32, layout.element_bytes), Binop(ValType.I32, "mul"),
            Binop(ValType.I32, "add"),
            LocalSet(elem_addr),
        ])
        out.extend(self._store_components(elem_addr, layout.header_bytes, value_layout, spilled))
        return out

    # -- existential packages -----------------------------------------------------------------------------------

    def _compile_exist_pack(self, instr: ri.ExistPack, stack: Sequence[Type]) -> list[WInstr]:
        # The package cell stores the payload at the *abstract* layout of the
        # existential body (pretype variables lower to i32 pointers).  The
        # code generators only instantiate existentials with pointer-shaped
        # witnesses, so the concrete payload layout coincides with it; a
        # mismatch indicates a representation the lowering cannot express.
        if not isinstance(instr.heaptype, ExHT):
            raise LoweringError("exist.pack annotation must be an existential heap type")
        payload_type = stack[-1]
        payload_layout = lower_type(payload_type)
        abstract_layout = lower_type(instr.heaptype.body)
        if payload_layout != abstract_layout:
            raise LoweringError(
                "exist.pack payload layout does not match the abstract package layout: "
                f"{payload_layout} vs {abstract_layout} (instantiate existentials with boxed witnesses)"
            )
        cell_bytes = max(layout_bytes(abstract_layout), 4)
        cell = self._named("cell_addr")
        spilled = self._spill(payload_layout)
        out: list[WInstr] = list(spilled.code)
        out.append(Const(ValType.I32, cell_bytes))
        out.append(WCall(self.runtime.malloc_index))
        out.append(LocalTee(cell))
        out.extend(self._store_components(cell, 0, payload_layout, spilled))
        self.stats.boxing_coercions += 1
        return out

    def _compile_exist_unpack(
        self, instr: ri.ExistUnpack, stack: Sequence[Type], label_map: list[int]
    ) -> list[WInstr]:
        from ..core.syntax.qualifiers import QualConst

        params = list(instr.arrow.params)
        results_layout = lower_types(instr.arrow.results)
        linear_flavour = instr.qual == QualConst.LIN

        out: list[WInstr] = []
        param_spills: list["_FunctionCompiler._Spilled"] = []
        base = 0
        for ty in reversed(params):
            spilled = self._spill(lower_type(ty), base=base)
            base += len(lower_type(ty))
            out.extend(spilled.code)
            param_spills.append(spilled)
        param_spills.reverse()

        addr = self._named("heap_addr")
        if linear_flavour:
            out.append(LocalSet(addr))
        else:
            out.append(LocalTee(addr))

        inner_map = [0] + [d + 1 for d in label_map]
        body: list[WInstr] = []
        for spilled in param_spills:
            body.extend(self._reload(spilled))
        # Read the payload at the abstract layout of the existential body.
        if not isinstance(instr.heaptype, ExHT):
            raise LoweringError("exist.unpack annotation must be an existential heap type")
        abstract_layout = lower_type(instr.heaptype.body)
        body.extend(self._load_components(addr, 0, abstract_layout))
        if linear_flavour:
            body.append(LocalGet(addr))
            body.append(WCall(self.runtime.free_index))
        body.extend(self._compile_seq(instr.body, inner_map))
        out.append(WBlock(WasmFuncType((), tuple(results_layout)), tuple(body)))
        return out
