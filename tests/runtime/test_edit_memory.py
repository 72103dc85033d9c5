"""Memory a one-function edit leaves behind in a long-lived compile cache.

An edit-and-relink loop keeps every program version its
:class:`~repro.runtime.ModuleCache` compiled.  What one more version costs
is the edited function's new artifacts plus the module-level tuples that
point at the shared, unchanged ones: no digest memo on each instruction
(only functions, declarations and modules memoize their digest) and no
joined copy of the generated source (``ModuleTranslation.source`` is
derived from the shared translate units).
"""

import gc
import tracemalloc

from repro import api
from repro.api import CompileConfig
from repro.runtime import ModuleCache
from workload_builders import edit_one_ml_function, mixed_sources

#: Bytes one edit of a 2x100-function program may leave retained.  A
#: digest memo on every instruction plus a per-version source string kept
#: about 300 KB per edit; without them an edit keeps about 40 KB
#: (Python 3.11).
RETAINED_PER_EDIT_BOUND = 64 * 1024

EDITS = 8


def test_one_function_edit_retains_at_most_64_kib():
    config = CompileConfig(opt_level="O2", engine="compiled", cache="private")
    cache = ModuleCache()
    sources = mixed_sources(100)
    api.compile(sources, config, cache=cache)

    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for edit in range(EDITS):
            sources = edit_one_ml_function(sources, 33 * (edit + 1) % 100, 100 + edit)
            program = api.compile(sources, config, cache=cache)
            assert program.diagnostics.units["lower"]["compiled"] == 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    per_edit = retained / EDITS
    assert per_edit <= RETAINED_PER_EDIT_BOUND, (
        f"one-function edit retains {per_edit:,.0f} bytes "
        f"(bound {RETAINED_PER_EDIT_BOUND:,})"
    )
