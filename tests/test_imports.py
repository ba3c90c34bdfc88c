"""The package namespace resolves its names on first access, and each CLI
command loads only the modules it runs."""

import json
import sys

import pytest

import plotkin_wef
from helpers import fresh_cli_modules, fresh_modules
from plotkin_wef import cli

SUBMODULES = (
    "bounds", "cli", "codetree", "combinatorics", "enumerator", "errors", "kernel",
    "oracle", "plotkin",
)
PUBLIC = [name for name in plotkin_wef.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_the_object_of_its_home_module(name):
    value = getattr(plotkin_wef, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("plotkin_wef.")
    assert getattr(home, name) is value


def test_dir_lists_all_and_the_submodules():
    listed = dir(plotkin_wef)
    assert set(plotkin_wef.__all__) <= set(listed)
    assert {*SUBMODULES} <= set(listed)
    assert listed == sorted(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from plotkin_wef import *", namespace)
    for name in plotkin_wef.__all__:
        assert namespace[name] is getattr(plotkin_wef, name)


@pytest.mark.parametrize("module", [plotkin_wef, cli])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "Fraction")


# The benchmark under perfbench/ changes only with the benchmark itself, and
# reads these names of the package: its tracer wraps the first set on the cli
# module, and its self-test, reference maker and checks import the second.
BENCHMARK_CLI_NAMES = (
    "rm_tree", "tree_from_json_dict", "ensemble_wef", "combine",
    "combine_single_weight", "format_poly", "truncated_union_bound",
)
BENCHMARK_PACKAGE_NAMES = (
    "BinaryMatrix", "WeightEnumerator", "ensemble_wef", "ensemble_wef_exhaustive",
    "exact_wef_bruteforce", "generator_matrix", "rm_tree", "tree_from_active_set",
)


@pytest.mark.parametrize("name", BENCHMARK_CLI_NAMES)
def test_each_name_the_benchmark_traces_on_cli_is_the_package_object(name):
    assert getattr(cli, name) is getattr(plotkin_wef, name)


def test_the_other_names_the_benchmark_reads_resolve():
    from plotkin_wef import combinatorics, kernel, plotkin

    assert set(BENCHMARK_PACKAGE_NAMES) <= set(plotkin_wef.__all__)
    assert callable(plotkin_wef.WeightEnumerator.from_json_dict)
    assert plotkin.shared_table is combinatorics.shared_table
    assert isinstance(combinatorics.shared_table(0).rows, list)
    assert callable(kernel.combine_numerators)
    assert callable(combinatorics.plotkin_coefficient)


# The import system probes __path__ to tell a package from a module.
@pytest.mark.parametrize("name", ["Fraction", "_plan", "__path__"])
def test_cli_resolves_no_name_outside_the_package_all(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cli, name)


# fractions loads decimal and numbers; together they cost a short call
# several milliseconds of start-up.
FRACTION_MODULES = {"fractions", "decimal", "numbers"}


def test_the_package_import_loads_no_submodule():
    loaded = fresh_modules("import plotkin_wef")
    assert "plotkin_wef" in loaded
    assert not {m for m in loaded if m.startswith("plotkin_wef.")}
    assert not FRACTION_MODULES & loaded


def test_the_kernel_loads_no_other_package_module():
    loaded = fresh_modules("import plotkin_wef.kernel")
    assert {m for m in loaded if m.startswith("plotkin_wef")} == {
        "plotkin_wef", "plotkin_wef.kernel",
    }


def test_oracle_and_bounds_load_fractions_only_to_build_one():
    loaded = fresh_modules("import plotkin_wef.oracle, plotkin_wef.bounds")
    assert {"plotkin_wef.oracle", "plotkin_wef.bounds"} <= loaded
    assert not FRACTION_MODULES & loaded


def test_a_submodule_and_a_name_load_on_first_access():
    loaded = fresh_modules(
        "import plotkin_wef\n"
        "assert plotkin_wef.oracle.__name__ == 'plotkin_wef.oracle'\n"
        "assert plotkin_wef.q_function.__module__ == 'plotkin_wef.bounds'"
    )
    assert {"plotkin_wef.oracle", "plotkin_wef.bounds"} <= loaded
    assert "plotkin_wef.codetree" not in loaded


@pytest.mark.parametrize("name", ["rm_tree", "tree_from_json_dict", "truncated_union_bound"])
def test_handlers_call_the_name_bound_on_the_cli_module(capsys, tmp_path, monkeypatch, name):
    # perfbench's tracer wraps these names on the cli module; a handler must
    # call the wrapper, and binding the name on first use must not undo it.
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"rm": {"r": 1, "m": 3}}), encoding="utf-8")
    rm = ["rm", "1", "3", "--format", "json"]
    assert cli.main(rm) == 0
    record = tmp_path / "rm.json"
    record.write_text(capsys.readouterr().out, encoding="utf-8")
    argv = {
        "rm_tree": rm,
        "tree_from_json_dict": ["tree", str(tree)],
        "truncated_union_bound": [
            "bound", str(record), "--rate", "1/2", "--ebn0", "3", "--truncate", "4",
        ],
    }[name]
    calls = []
    original = getattr(cli, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, recording)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert getattr(cli, name) is recording


@pytest.fixture
def spectrum_files(tmp_path):
    paths = []
    for name, coeffs in [("u", {"0": "1", "1": "6/4", "3": "2/3", "4": "5"}),
                         ("v", {"0": "1/2", "2": "7", "4": "1/2"})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 4, "coeffs": coeffs}), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("extra", [[], ["--partial", "3"], ["--format", "json"]])
def test_combine_loads_no_tree_oracle_bound_or_fraction_modules(spectrum_files, extra):
    _, loaded = fresh_cli_modules("combine", *spectrum_files, *extra)
    assert "plotkin_wef.plotkin" in loaded
    unwanted = {
        "plotkin_wef.codetree", "plotkin_wef.oracle", "plotkin_wef.bounds",
        "fractions", "decimal",
    }
    assert not unwanted & loaded


def test_bound_loads_no_tree_or_oracle_modules(spectrum_files):
    argv = ["bound", spectrum_files[0], "--rate", "1/2", "--ebn0", "3", "--truncate", "4"]
    _, loaded = fresh_cli_modules(*argv)
    assert "plotkin_wef.bounds" in loaded
    assert not {"plotkin_wef.codetree", "plotkin_wef.oracle"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["rm", "1", "3"],
        ["rm", "2", "5", "--partial", "4", "--format", "json"],
        ["tree", "TREE"],
        ["tree", "TREE", "--format", "csv"],
    ],
)
def test_rm_and_tree_load_no_oracle_bound_or_fraction_modules(tmp_path, argv):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"m": 3, "active": [3, 5, 6, 7]}), encoding="utf-8")
    argv = [str(tree) if a == "TREE" else a for a in argv]
    _, loaded = fresh_cli_modules(*argv)
    assert "plotkin_wef.codetree" in loaded
    assert not {"plotkin_wef.oracle", "plotkin_wef.bounds", "fractions", "decimal"} & loaded


def test_emit_generator_loads_oracle(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"m": 3, "active": [3, 5, 6, 7]}), encoding="utf-8")
    argv = ["tree", str(tree), "--emit-generator"]
    out, loaded = fresh_cli_modules(*argv)
    assert "plotkin_wef.oracle" in loaded
    assert "plotkin_wef.bounds" not in loaded
    assert not FRACTION_MODULES & loaded
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out
    assert out.splitlines()[1:] == ["11110000", "11001100", "10101010", "11111111"]
