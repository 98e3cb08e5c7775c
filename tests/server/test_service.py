"""Method dispatch of the analysis service, driven in-process."""

import json
import shutil
from pathlib import Path

import pytest

from repro.api import Project, Session
from repro.engine import IncrementalEngine
from repro.server import AnalysisService, protocol

ML = (
    "type t = A of int | B\n"
    'external get : t -> int = "ml_get"\n'
    'external bad : int -> int = "ml_bad"\n'
)

GOOD_C = """\
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""

BAD_C = "value ml_bad(value x) { return Val_int(x); }\n"

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(ML)
    (root / "good.c").write_text(GOOD_C)
    (root / "bad.c").write_text(BAD_C)
    return root


@pytest.fixture()
def service(tree):
    return AnalysisService(IncrementalEngine(tree))


def call(service, method, params=None, request_id=1):
    frame = {"id": request_id, "method": method}
    if params is not None:
        frame["params"] = params
    return service.handle(json.dumps(frame))


class TestMethods:
    def test_ping(self, service):
        response = call(service, "ping")
        assert response["result"]["pong"] is True
        assert response["result"]["units"] == 2

    def test_check_returns_full_report(self, service):
        response = call(service, "check")
        result = response["result"]
        assert result["tally"]["errors"] == 1
        assert len(result["units"]) == 2
        assert len(result["incremental"]["ran"]) == 2

    def test_check_twice_reuses_resident_state(self, service):
        call(service, "check")
        result = call(service, "check")["result"]
        assert result["incremental"]["ran"] == []
        assert result["incremental"]["reused"] == 2
        assert result["tally"]["errors"] == 1

    def test_invalidate_then_check_reruns_only_touched(self, service, tree):
        call(service, "check")
        (tree / "good.c").write_text(GOOD_C + "\n/* edit */\n")
        invalidated = call(
            service, "invalidate", {"paths": ["good.c"]}
        )["result"]["invalidated"]
        assert [p.rsplit("/", 1)[-1] for p in invalidated] == ["good.c"]
        result = call(service, "check")["result"]
        ran = [p.rsplit("/", 1)[-1] for p in result["incremental"]["ran"]]
        assert ran == ["good.c"]

    def test_status(self, service):
        result = call(service, "status")["result"]
        assert result["units"] == 2
        assert "cache" in result

    def test_shutdown_sets_the_event(self, service):
        assert not service.shutdown_requested.is_set()
        response = call(service, "shutdown")
        assert response["result"] == {"ok": True}
        assert service.shutdown_requested.is_set()


class TestErrors:
    def test_unknown_method(self, service):
        response = call(service, "compile")
        assert response["error"]["code"] == protocol.METHOD_NOT_FOUND
        assert "compile" in response["error"]["message"]

    def test_malformed_frame(self, service):
        response = service.handle("{broken")
        assert response["error"]["code"] == protocol.PARSE_ERROR
        assert response["id"] is None

    def test_invalidate_requires_paths(self, service):
        response = call(service, "invalidate", {})
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    def test_check_rejects_non_list_units(self, service):
        response = call(service, "check", {"units": "good.c"})
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    def test_blank_lines_ignored(self, service):
        assert service.handle_line("   \n") is None

    def test_id_echoed_back(self, service):
        response = call(service, "ping", request_id="req-77")
        assert response["id"] == "req-77"


class TestLeaderFailureContainment:
    """A non-protocol engine failure inside a coalescing leader must
    come back as an INTERNAL_ERROR frame — never propagate out of
    ``handle_line``, where it would kill the transport's loop."""

    def test_engine_exception_becomes_internal_error(
        self, service, monkeypatch
    ):
        def explode(units=None):
            raise ValueError("unit path contains an embedded null byte")

        monkeypatch.setattr(service.engine, "check", explode)
        line = json.dumps({"id": 9, "method": "check"})
        response = json.loads(service.handle_line(line))
        assert response["id"] == 9
        assert response["error"]["code"] == protocol.INTERNAL_ERROR
        assert "ValueError" in response["error"]["message"]

    def test_failed_leader_does_not_wedge_later_checks(
        self, service, monkeypatch
    ):
        real_check = service.engine.check
        blew_up = []

        def explode_once(units=None):
            if not blew_up:
                blew_up.append(True)
                raise OSError("transient I/O failure")
            return real_check(units)

        monkeypatch.setattr(service.engine, "check", explode_once)
        first = json.loads(
            service.handle_line(json.dumps({"id": 1, "method": "check"}))
        )
        assert first["error"]["code"] == protocol.INTERNAL_ERROR
        # the failed computation was not memoized; a retry succeeds
        second = json.loads(
            service.handle_line(json.dumps({"id": 2, "method": "check"}))
        )
        assert second["result"]["tally"]["errors"] == 1


class TestWireStability:
    def test_daemon_diagnostics_byte_identical_to_one_shot(self, service, tree):
        """The bench gate's core claim, in miniature: serializing the
        daemon's diagnostics for a unit equals serializing a one-shot
        ``Project.analyze`` of the same sources."""
        result = call(service, "check")["result"]
        (unit,) = [
            u for u in result["units"] if u["name"].endswith("bad.c")
        ]
        project = Project().add_ocaml(
            (tree / "lib.ml").read_text(), name=str(tree / "lib.ml")
        )
        project.add_c((tree / "bad.c").read_text(), name=str(tree / "bad.c"))
        report = project.analyze()
        one_shot = [d.to_dict() for d in report.diagnostics]
        wire = protocol.encode({"diagnostics": unit["diagnostics"]})
        direct = protocol.encode({"diagnostics": one_shot})
        assert wire.encode() == direct.encode()

    @pytest.mark.parametrize(
        "dialect, corpus, edited",
        [
            ("ocaml", "glue", "counter_stubs.c"),
            ("pyext", "pyext", "clean_module.c"),
            ("jni", "jni", "clean_native.c"),
        ],
    )
    def test_example_corpora_byte_identical_to_one_shot(
        self, tmp_path, dialect, corpus, edited
    ):
        """After an edit and an incremental re-check, every example
        unit's wire diagnostics equal a one-shot ``Project.analyze`` of
        that unit with the tree's host sources."""
        root = tmp_path / corpus
        shutil.copytree(EXAMPLES / corpus, root)
        with Session(root, dialect=dialect) as session:
            session.check()
            (root / edited).write_text((root / edited).read_text() + "\n/* edit */\n")
            session.invalidate([root / edited])
            session.check()
            result = session.service().handle(
                json.dumps({"id": 1, "method": "check"})
            )["result"]
        by_name = {u["name"]: u for u in result["units"]}
        units = sorted(root.glob("*.c"))
        assert len(by_name) == len(units)
        for unit in units:
            project = Project(dialect=dialect)
            for host in sorted(root.glob("*.ml")) + sorted(root.glob("*.mli")):
                project.add_ocaml(host.read_text(), name=str(host))
            project.add_c(unit.read_text(), name=str(unit))
            one_shot = [d.to_dict() for d in project.analyze().diagnostics]
            wire = protocol.encode({"diagnostics": by_name[str(unit)]["diagnostics"]})
            direct = protocol.encode({"diagnostics": one_shot})
            assert wire.encode() == direct.encode(), unit.name


def without_timings(result: dict) -> dict:
    """A check result with its measured times dropped."""
    result = dict(result)
    result.pop("elapsed_seconds")
    result["units"] = [
        {k: v for k, v in unit.items() if k != "probe_seconds"}
        for unit in result["units"]
    ]
    if "link" in result:
        result["link"] = {
            k: v for k, v in result["link"].items() if k != "elapsed_seconds"
        }
    return result


class TestSettledMemo:
    """A check that re-ran edited units files, under the engine's new
    revision, the response an unchanged re-check gives there."""

    @pytest.mark.parametrize("params", [{}, {"link": True}], ids=["plain", "link"])
    def test_first_noop_after_an_edit_is_a_memo_hit(self, service, tree, params):
        def wire_check(request_id):
            frame = {"id": request_id, "method": "check", "params": params}
            return json.loads(service.handle_line(json.dumps(frame)))

        wire_check(1)
        (tree / "good.c").write_text(GOOD_C + "\n/* edit */\n")
        call(service, "invalidate", {"paths": ["good.c"]})
        edited = wire_check(2)["result"]
        assert [p.rsplit("/", 1)[-1] for p in edited["incremental"]["ran"]] == [
            "good.c"
        ]
        before = service.coalescer.stats()
        replay = wire_check(3)
        after = service.coalescer.stats()
        assert after["coalesced_memo"] == before["coalesced_memo"] + 1
        assert after["computed"] == before["computed"]
        assert replay["id"] == 3
        assert replay["result"]["incremental"]["ran"] == []
        assert replay["result"]["incremental"]["reused"] == 2
        # the engine's own answer to the same re-check, uncoalesced
        direct = call(service, "check", params)["result"]
        assert without_timings(replay["result"]) == without_timings(direct)

    def test_no_settled_report_once_the_engine_moves_on(self, service, tree):
        engine = service.engine
        engine.check()
        (tree / "good.c").write_text(GOOD_C + "\n/* edit */\n")
        engine.invalidate(["good.c"])
        report = engine.check()
        assert report.rechecked
        assert engine.settled(report).reused == len(report.results)
        engine.invalidate(["good.c"])
        assert engine.settled(report) is None

    def test_first_check_leaves_the_next_one_to_the_engine(self, service):
        # a first check has no earlier results to re-run; the check after
        # it computes, and from then on the revision memo serves repeats
        service.handle_line(json.dumps({"id": 1, "method": "check"}))
        second = service.handle_line(json.dumps({"id": 2, "method": "check"}))
        assert json.loads(second)["result"]["incremental"]["ran"] == []
        assert service.coalescer.stats()["computed"] == 2


class TestSession:
    def test_session_context_manager_checks(self, tree):
        with Session(tree) as session:
            report = session.check()
            assert report.tally()["errors"] == 1
            assert session.status()["units"] == 2

    def test_session_invalidate_flow(self, tree):
        with Session(tree) as session:
            session.check()
            (tree / "good.c").write_text(GOOD_C + "\n")
            affected = session.invalidate(["good.c"])
            assert len(affected) == 1
            report = session.check()
            assert len(report.checked) == 1 and report.reused == 1

    def test_closed_session_raises(self, tree):
        session = Session(tree)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.check()

    def test_session_service_shares_the_engine(self, tree):
        with Session(tree) as session:
            session.check()
            service = session.service()
            result = call(service, "check")["result"]
            assert result["incremental"]["reused"] == 2

    def test_session_cold_cache_dir(self, tree, tmp_path):
        with Session(tree, cache_dir=tmp_path / "cache") as session:
            session.check()
        with Session(tree, cache_dir=tmp_path / "cache") as session:
            report = session.check()
            assert report.ran == []  # disk tier warmed the new session

    def test_session_reload_rescans(self, tree):
        with Session(tree) as session:
            session.check()
            (tree / "extra.c").write_text("int f(void) { return 0; }\n")
            session.reload()
            report = session.check()
            assert len(report.results) == 3
