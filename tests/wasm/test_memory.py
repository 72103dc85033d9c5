"""Bounds-edge tests for :class:`repro.wasm.LinearMemory`.

The memory moved to a memoryview/bytearray fast path: reads are zero-copy
views over the backing store, writes are in-place slice assignments, and
``grow`` extends the backing ``bytearray`` in place (identity-preserving for
engines that bind ``memory.data`` locally).  These tests pin the edge
behaviour: growth to the declared maximum, off-by-one accesses at page
boundaries, zero-length accesses, and both engines trapping identically.
"""

import pytest

from repro.wasm import (
    Binop,
    Const,
    LinearMemory,
    Load,
    MAX_MEMORY_PAGES,
    MemoryGrow,
    MemorySize,
    PAGE_SIZE,
    StoreI,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTrap,
)

I32 = ValType.I32


def memory_module(body, *, pages=1, max_pages=None, results=(I32,)):
    function = WasmFunction(WasmFuncType((), tuple(results)), (), tuple(body), exports=("main",))
    return WasmModule(functions=(function,), memory=WasmMemory(pages, max_pages))


def run_both(module, export="main"):
    outcomes = []
    for engine in ("tree", "flat"):
        interp = WasmInterpreter(engine=engine)
        inst = interp.instantiate(module)
        try:
            outcomes.append(("ok", interp.invoke(inst, export)))
        except WasmTrap as trap:
            outcomes.append(("trap", str(trap)))
    assert outcomes[0] == outcomes[1], f"engine divergence: {outcomes}"
    return outcomes[0]


class TestDirectAccess:
    def test_read_is_zero_copy_view(self):
        memory = LinearMemory(1)
        memory.write(4, b"\x01\x02\x03\x04")
        view = memory.read(4, 4)
        assert isinstance(view, memoryview)
        assert view == b"\x01\x02\x03\x04"
        # Zero-copy: later writes are visible through the view.
        memory.data[4] = 0xFF
        assert view[0] == 0xFF

    def test_read_bytes_returns_owned_copy(self):
        memory = LinearMemory(1)
        memory.write(0, b"abc")
        copy = memory.read_bytes(0, 3)
        assert isinstance(copy, bytes)
        memory.data[0] = 0
        assert copy == b"abc"

    def test_zero_length_access(self):
        memory = LinearMemory(1)
        assert memory.read(0, 0) == b""
        # A zero-length access at the very end of memory is in bounds...
        assert memory.read(PAGE_SIZE, 0) == b""
        memory.write(PAGE_SIZE, b"")
        # ...but one byte past it is not.
        with pytest.raises(WasmTrap, match="out-of-bounds"):
            memory.read(PAGE_SIZE + 1, 0)

    def test_off_by_one_at_page_boundary(self):
        memory = LinearMemory(1)
        memory.write(PAGE_SIZE - 4, b"\xAA\xBB\xCC\xDD")  # flush against the end
        assert memory.read(PAGE_SIZE - 1, 1) == b"\xDD"
        with pytest.raises(WasmTrap, match="out-of-bounds"):
            memory.read(PAGE_SIZE - 3, 4)
        with pytest.raises(WasmTrap, match="out-of-bounds"):
            memory.write(PAGE_SIZE - 3, b"\x00\x00\x00\x00")

    def test_negative_address_traps(self):
        memory = LinearMemory(1)
        with pytest.raises(WasmTrap, match="out-of-bounds"):
            memory.read(-1, 1)

    def test_grow_to_max_and_beyond(self):
        memory = LinearMemory(1, max_pages=3)
        assert memory.grow(2) == 1  # returns the old size
        assert memory.size_pages() == 3
        assert memory.grow(1) == -1  # beyond max: refused, size unchanged
        assert memory.size_pages() == 3
        assert memory.grow(0) == 3  # zero growth at max is fine

    def test_grow_negative_delta_returns_minus_one(self):
        # Wasm deltas are u32, so a negative Python int is out of range: the
        # failure mode is -1, never an exception (this used to raise
        # ValueError from bytes(negative)).
        memory = LinearMemory(2)
        assert memory.grow(-1) == -1
        assert memory.grow(-(1 << 40)) == -1
        assert memory.size_pages() == 2

    def test_grow_without_declared_max_hits_the_4gib_hard_limit(self):
        # No declared maximum does not mean unbounded: memory is u32-indexed,
        # so 65536 pages is the ceiling regardless.  (Deltas that would pass
        # the old unchecked path are refused without allocating anything.)
        assert MAX_MEMORY_PAGES == 65536
        memory = LinearMemory(1)
        assert memory.max_pages is None
        assert memory.grow(MAX_MEMORY_PAGES) == -1       # 1 + 65536 > limit
        assert memory.grow(MAX_MEMORY_PAGES + 123) == -1
        assert memory.grow(1 << 40) == -1
        assert memory.size_pages() == 1

    def test_declared_max_above_the_hard_limit_is_clamped(self):
        memory = LinearMemory(1, max_pages=MAX_MEMORY_PAGES * 2)
        assert memory.grow(MAX_MEMORY_PAGES) == -1
        assert memory.size_pages() == 1

    def test_grow_preserves_data_and_identity(self):
        memory = LinearMemory(1)
        backing = memory.data
        memory.write(100, b"keep")
        assert memory.grow(1) == 1
        assert memory.data is backing  # in-place extend, bindings stay valid
        assert memory.read(100, 4) == b"keep"
        assert memory.read(PAGE_SIZE, 4) == b"\x00\x00\x00\x00"
        # The refreshed view covers the grown region.
        assert len(memory.read(0, 2 * PAGE_SIZE)) == 2 * PAGE_SIZE

    def test_view_held_across_grow_is_rejected(self):
        # Growing needs the buffer unexported; a caller-held view makes the
        # resize fail loudly — with a message naming the hazard and the
        # escape hatch — rather than corrupt the view.
        memory = LinearMemory(1)
        view = memory.read(0, 4)
        with pytest.raises(BufferError, match="zero-copy view.*read_bytes"):
            memory.grow(1)
        assert memory.size_pages() == 1  # unchanged: the error is pre-mutation
        view.release()
        assert memory.grow(1) == 1

    def test_view_held_across_reset_is_rejected(self):
        memory = LinearMemory(1)
        memory.grow(1)
        view = memory.read(0, 4)
        with pytest.raises(BufferError, match="zero-copy view"):
            memory.reset(bytes(PAGE_SIZE))
        view.release()
        memory.reset(bytes(PAGE_SIZE))
        assert memory.size_pages() == 1

    def test_same_size_reset_restores_in_place_with_a_view_held(self):
        # A same-size image needs no resize: it is copied through the cached
        # view, so the backing store keeps its identity and a caller-held
        # view neither blocks the reset nor goes stale.
        memory = LinearMemory(1)
        backing = memory.data
        memory.write(0, b"init")
        image = bytes(memory.data)
        memory.write(0, b"gone")
        memory.write(PAGE_SIZE - 4, b"tail")
        view = memory.read(0, 4)
        memory.reset(image)
        assert memory.data is backing
        assert bytes(memory.data) == image
        assert view == b"init"
        view.release()
        assert memory.grow(1) == 1  # the cached view was kept coherent
        assert memory.read(0, 4) == b"init"

    def test_reads_still_work_after_rejected_grow(self):
        # The cached internal view must be re-established after the failure.
        memory = LinearMemory(1)
        memory.write(0, b"abcd")
        view = memory.read(0, 4)
        with pytest.raises(BufferError):
            memory.grow(1)
        assert memory.read(0, 4) == b"abcd"
        view.release()

    def test_trap_message_shape(self):
        memory = LinearMemory(1)
        with pytest.raises(WasmTrap) as excinfo:
            memory.read(PAGE_SIZE, 4)
        assert str(excinfo.value) == (
            f"out-of-bounds memory access at {PAGE_SIZE} (+4), memory is {PAGE_SIZE} bytes"
        )


class TestEngineBoundaryAgreement:
    def test_store_at_boundary_ok(self):
        module = memory_module([
            Const(I32, PAGE_SIZE - 4), Const(I32, 0x1234), StoreI(I32),
            Const(I32, PAGE_SIZE - 4), Load(I32),
        ])
        assert run_both(module) == ("ok", [0x1234])

    def test_store_off_by_one_traps_identically(self):
        module = memory_module([
            Const(I32, PAGE_SIZE - 3), Const(I32, 1), StoreI(I32),
            Const(I32, 0),
        ])
        kind, message = run_both(module)
        assert kind == "trap"
        assert message == (
            f"out-of-bounds memory access at {PAGE_SIZE - 3} (+4), memory is {PAGE_SIZE} bytes"
        )

    def test_narrow_load_at_boundary(self):
        module = memory_module([
            Const(I32, PAGE_SIZE - 1), Const(I32, 0x7F), StoreI(I32, width=8),
            Const(I32, PAGE_SIZE - 1), Load(I32, width=8, signed=False),
        ])
        assert run_both(module) == ("ok", [0x7F])

    def test_load_with_offset_past_boundary_traps(self):
        module = memory_module([
            Const(I32, PAGE_SIZE - 2), Load(I32, offset=1, width=16),
        ])
        kind, message = run_both(module)
        assert kind == "trap"
        assert "out-of-bounds" in message

    def test_access_after_grow_agrees(self):
        from repro.wasm import MemoryGrow, WDrop

        module = memory_module([
            Const(I32, 1), MemoryGrow(), WDrop(),
            Const(I32, PAGE_SIZE + 8), Const(I32, 0xBEEF), StoreI(I32),
            Const(I32, PAGE_SIZE + 8), Load(I32),
        ], max_pages=2)
        assert run_both(module) == ("ok", [0xBEEF])

    def test_grow_beyond_max_returns_minus_one_wrapped(self):
        module = memory_module([
            Const(I32, 5), MemoryGrow(),
        ], max_pages=2)
        assert run_both(module) == ("ok", [0xFFFFFFFF])


class TestGrowFailurePathParity:
    """`memory.grow` failures are a ``-1`` result, not a trap, and cost the
    same steps on both engines — including under every step budget."""

    # The budget points used by tests/wasm/test_engines.py::TestMaxStepsParity.
    BUDGET_POINTS = [1, 2, 3, 5, 17, 100, 399, 701]

    @staticmethod
    def _grow_failures_module():
        # Three failing grows (negative-as-u32, huge, beyond declared max)
        # followed by a successful one; result: -1 -1 -1 summed with the old
        # size and the final page count.
        body = (
            Const(I32, 0xFFFFFFFF), MemoryGrow(),   # u32 delta way past the limit: -1
            Const(I32, 70000), MemoryGrow(),        # past the 4 GiB hard limit: -1
            Binop(I32, "add"),
            Const(I32, 4), MemoryGrow(),            # past max_pages=2: -1
            Binop(I32, "add"),
            Const(I32, 1), MemoryGrow(),            # ok: old size 1
            Binop(I32, "add"),
            MemorySize(),
            Binop(I32, "add"),
        )
        return memory_module(body, max_pages=2)

    def test_failed_grows_return_minus_one_without_trapping(self):
        module = self._grow_failures_module()
        kind, values = run_both(module)
        assert kind == "ok"
        # 3 * 0xFFFFFFFF + 1 + 2, wrapped to u32.
        assert values == [(3 * 0xFFFFFFFF + 1 + 2) & 0xFFFFFFFF]

    def test_steps_identical_across_engines(self):
        module = self._grow_failures_module()
        steps = []
        for engine in ("tree", "flat"):
            interp = WasmInterpreter(engine=engine)
            inst = interp.instantiate(module)
            interp.invoke(inst, "main")
            steps.append(interp.steps)
        assert steps[0] == steps[1] > 0

    @pytest.mark.parametrize("budget", BUDGET_POINTS)
    def test_budget_parity_through_grow_failures(self, budget):
        module = self._grow_failures_module()
        outcomes = []
        for engine in ("tree", "flat"):
            interp = WasmInterpreter(max_steps=budget, engine=engine)
            inst = interp.instantiate(module)
            try:
                outcomes.append(("ok", interp.invoke(inst, "main"), interp.steps))
            except WasmTrap as trap:
                outcomes.append(("trap", str(trap), interp.steps))
        assert outcomes[0] == outcomes[1], f"budget {budget}: {outcomes}"
        kind, detail, steps = outcomes[0]
        if kind == "trap":
            assert detail == "step budget exhausted"
            assert steps == budget + 1  # the offending step is counted


class TestGrowWhileViewedParity:
    def test_grow_under_held_view_raises_identically_on_both_engines(self):
        # A host function grabs a zero-copy view; the module then tries to
        # grow.  Both engines surface the same clear BufferError (not an
        # opaque "exported pointers" failure), and the memory is unchanged.
        from repro.wasm import WasmImportedFunction, WCall, WDrop

        peek = WasmImportedFunction(WasmFuncType((), ()), "env", "peek")
        main = WasmFunction(WasmFuncType((), (I32,)), (), (
            WCall(0),
            Const(I32, 1), MemoryGrow(),
        ), exports=("main",))
        module = WasmModule(functions=(peek, main), memory=WasmMemory(1, 4))

        outcomes = []
        for engine in ("tree", "flat"):
            interp = WasmInterpreter(engine=engine)
            holder = {}

            def grab():
                holder["view"] = holder["inst"].memory.read(0, 4)

            holder["inst"] = interp.instantiate(module, {("env", "peek"): grab})
            with pytest.raises(BufferError) as excinfo:
                interp.invoke(holder["inst"], "main")
            outcomes.append(str(excinfo.value))
            holder["view"].release()
            assert holder["inst"].memory.size_pages() == 1
        assert outcomes[0] == outcomes[1]
        assert "zero-copy view" in outcomes[0]
