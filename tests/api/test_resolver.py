"""The export resolver :class:`~repro.api.Service` and
:class:`~repro.cluster.ClusterService` share.

Both tiers resolve names parent-side through one memoizing
:class:`~repro.api.service.ExportResolver`: successes are cached by name,
failures never are, and an already-canonical request passes through as the
same object.
"""

import pytest

from repro import api
from repro.api.service import ExportResolver, resolve_export
from repro.core.typing.errors import LinkError
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.runtime import Request, Session


def _program():
    """``a.double``/``b.double`` (an ambiguous suffix) and ``a.inc``."""

    double = MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2)))
    inc = MLFunction("inc", "x", TInt(), TInt(), BinOp("+", Var("x"), IntLit(1)))
    return {
        "a": ml_module("a", functions=[double, inc]),
        "b": ml_module("b", functions=[double]),
    }


@pytest.fixture(scope="module", params=[1, 2], ids=["service", "cluster"])
def service(request):
    with api.serve(_program(), {"cache": "private", "workers": request.param}) as served:
        yield served


class TestSharedResolver:
    def test_both_tiers_use_the_shared_resolver(self, service):
        assert type(service._resolver) is ExportResolver
        assert service.exports == service._resolver.exports

    def test_unknown_name_raises_on_every_call(self, service):
        for _ in range(3):
            with pytest.raises(LinkError, match="no export named 'nope'"):
                service.resolve("nope")
            with pytest.raises(LinkError, match="no export named 'nope'"):
                service.call("nope", [1])

    def test_ambiguous_name_raises_on_every_call(self, service):
        for _ in range(3):
            with pytest.raises(LinkError, match=r"ambiguous export 'double'.*a\.double.*b\.double"):
                service.resolve("double")
            with pytest.raises(LinkError, match="ambiguous"):
                service.run_one(Session(calls=(("double", (1,)),)))

    def test_names_resolve_as_before(self, service):
        for name in ("inc", "a.inc", "a.double", "b.double"):
            assert service.resolve(name) == resolve_export(service.exports, name)
            assert service.resolve(name) == resolve_export(service.exports, name)
        assert service.call("inc", [4]) == service.call("a.inc", [4]) == [5]

    def test_canonical_requests_come_back_as_the_same_object(self, service):
        resolver = service._resolver
        request = Request("a.double", (3,))
        session = Session(calls=(("a.double", (3,)), ("a.inc", ())))
        assert resolver.request(request) is request
        assert resolver.request(session) is session

    def test_session_argument_lists_become_tuples(self, service):
        session = Session(calls=(("a.inc", [3]), ("a.double", (4,))))
        resolved = service._resolver.request(session)
        assert resolved is not session
        assert resolved == Session(calls=(("a.inc", (3,)), ("a.double", (4,))))
        outcome = service.run_one(session)
        assert outcome.ok and outcome.values == [[4], [8]]


class TestExportResolver:
    """Suffix resolution on a table without bare aliases (the services
    above export a bare name next to every unambiguous qualified one)."""

    def test_suffix_names_resolve_as_before(self):
        exports = ("m.f", "m.g", "n.g")
        resolver = ExportResolver(exports)
        assert resolver.resolve("f") == resolve_export(exports, "f") == "m.f"
        assert resolver.resolve("f") == "m.f"
        for _ in range(2):
            with pytest.raises(LinkError, match="ambiguous export 'g'"):
                resolver.resolve("g")

    def test_requests_with_suffix_names_are_rebuilt(self):
        resolver = ExportResolver(("m.f", "m.g"))
        request = Request("f", (1,), max_steps=9, trace_id="t")
        assert resolver.request(request) == Request("m.f", (1,), max_steps=9, trace_id="t")
        session = Session(calls=(("f", [1]), ("m.g", ())), session_id="s")
        assert resolver.request(session) == Session(
            calls=(("m.f", (1,)), ("m.g", ())), session_id="s"
        )
