"""Corpus scanning: the dialect's host suffixes, ``.c`` units, and the
lazy walk."""

import pytest

from repro.boundary import CORPUS_UNIT_SUFFIXES, get_dialect
from repro.corpus import iter_tree, scan_tree


class TestUnitSuffixes:
    @pytest.mark.parametrize("dialect", ["ocaml", "pyext", "jni"])
    def test_registered_dialects_scan_c_units(self, dialect, tree):
        assert CORPUS_UNIT_SUFFIXES == (".c",)
        scan = scan_tree(tree, get_dialect(dialect))
        # headers and strays are not units, whatever the dialect
        assert sorted(u.filename.rsplit("/", 1)[-1] for u in scan.units) == [
            "a.c",
            "b.c",
        ]


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "lib.ml").write_text('external f : int -> int = "ml_f"\n')
    (tmp_path / "a.c").write_text("value ml_f(value x) { return x; }\n")
    (tmp_path / "sub" / "b.c").write_text("long helper(long x) { return x; }\n")
    (tmp_path / "shared.h").write_text("#define N 1\n")
    (tmp_path / "notes.txt").write_text("not a source\n")
    return tmp_path


class TestIterTree:
    def test_hosts_eager_units_lazy(self, tree):
        spec = get_dialect("ocaml")
        scan = iter_tree(tree, spec)
        assert [s.filename.rsplit("/", 1)[-1] for s in scan.hosts] == [
            "lib.ml"
        ]
        # only paths so far; headers and strays excluded
        names = sorted(p.name for p in scan.unit_paths)
        assert names == ["a.c", "b.c"]
        units = list(scan.iter_units())
        assert len(scan) == 2
        assert [u.filename.rsplit("/", 1)[-1] for u in units] == ["a.c", "b.c"]

    def test_iter_units_skips_unusable_files_late(self, tree):
        (tree / "empty.c").write_text("")
        spec = get_dialect("ocaml")
        scan = iter_tree(tree, spec)
        # the walk records the path; only iteration discovers and warns
        assert "empty.c" in {p.name for p in scan.unit_paths}
        with pytest.warns(UserWarning, match="empty"):
            units = list(scan.iter_units())
        assert "empty.c" not in {
            u.filename.rsplit("/", 1)[-1] for u in units
        }

    def test_name_for_controls_recorded_names(self, tree):
        scan = iter_tree(tree, get_dialect("ocaml"), name_for=lambda p: p.name)
        assert [u.filename for u in scan.iter_units()] == ["a.c", "b.c"]


class TestScanTree:
    def test_matches_iter_tree(self, tree):
        spec = get_dialect("ocaml")
        eager = scan_tree(tree, spec)
        lazy = iter_tree(tree, spec)
        assert [s.filename for s in eager.hosts] == [
            s.filename for s in lazy.hosts
        ]
        assert [u.filename for u in eager.units] == [
            u.filename for u in lazy.iter_units()
        ]

    def test_host_suffixes_follow_the_dialect(self, tree):
        (tree / "lib.rs").write_text('extern "C" { fn f() -> i32; }\n')
        rust = scan_tree(tree, get_dialect("rust"))
        ocaml = scan_tree(tree, get_dialect("ocaml"))
        assert [s.filename.rsplit("/", 1)[-1] for s in rust.hosts] == ["lib.rs"]
        assert [s.filename.rsplit("/", 1)[-1] for s in ocaml.hosts] == ["lib.ml"]
        assert [u.filename for u in rust.units] == [u.filename for u in ocaml.units]
