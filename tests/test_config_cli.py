import re
import warnings
from pathlib import Path

import pytest
import yaml

from spectralbox import cli, config
from spectralbox.cli import main
from spectralbox.config import ConfigError, load_config, parse_config
from spectralbox.model import (
    Domain, ExplicitSpectrum, IntervalUnion, IntFunction, Tower, UnitCube,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
command: root-scan
rootscan:
  coefficients: [1, 1]
  samples: 4096
"""

CLASS_A = """
command: verify-pair
seed: 5
domain: {kind: unit-cube, dimension: 2}
spectrum:
  family: class-a
  alpha: 0.25
  beta: {default: 0.0, table: {"0": 0.2, "1": 0.5}}
window: {radius: 2}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.command == "root-scan"
    assert cfg.seed == 0
    # root-scan reads num_tol only
    assert cfg.tolerances == {"num_tol": 1e-8}
    assert cfg.rootscan["samples"] == 4096


def test_beta_table_parses_to_class_a():
    cfg = parse_config(CLASS_A)
    assert cfg.spectrum == Tower((
        IntFunction.constant(0.25),
        IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5}),
    ))
    alpha, beta = cfg.spectrum.levels
    assert alpha() == 0.25
    assert beta(0) == 0.2
    assert beta(1) == 0.5
    assert beta(7) == 0.0
    assert cfg.domain == UnitCube(2)
    assert cfg.window.cardinality == 25


def test_interval_union_domain():
    cfg = parse_config(
        """
command: verify-pair
domain: {kind: interval-union, intervals: [[0, 1], [2, 4]]}
spectrum: {family: explicit, points: [[0.0], [1.0]]}
window: {radius: 1}
"""
    )
    assert cfg.domain == Domain((IntervalUnion(((0.0, 1.0), (2.0, 4.0))),))
    assert cfg.domain.measure == pytest.approx(3.0)


class _PureStrictLoader(yaml.SafeLoader):
    pass


_PureStrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, config._no_duplicates
)
# the loader parse_config uses (libyaml's where PyYAML has it) and PyYAML's
# pure-Python one
LOADERS = [config._StrictLoader, _PureStrictLoader]
LOADER_IDS = ["parse_config", "pure_python"]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_loaders_give_equal_values_on_sample_configs(path):
    text = path.read_text(encoding="utf-8")
    values = [yaml.load(text, Loader=loader) for loader in LOADERS]
    assert repr(values[0]) == repr(values[1])


@pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
def test_duplicate_key_is_error_naming_the_key(monkeypatch, loader):
    monkeypatch.setattr(config, "_StrictLoader", loader)
    bad = """
command: root-scan
rootscan:
  samples: 64
  samples: 128
  coefficients: [1]
"""
    with pytest.raises(ConfigError, match="duplicate key 'samples' at line 5"):
        parse_config(bad)


def test_unknown_key_is_error():
    bad = MINIMAL + "\nbogus_key: 1\n"
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(bad)


def test_unknown_nested_key_is_error():
    bad = """
command: root-scan
rootscan: {coefficients: [1], samples: 64, extra: 2}
"""
    with pytest.raises(ConfigError, match="extra"):
        parse_config(bad)


@pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
def test_parse_error_reports_position(monkeypatch, loader):
    monkeypatch.setattr(config, "_StrictLoader", loader)
    with pytest.raises(ConfigError, match=r"parse error at line \d+, column \d+"):
        parse_config("command: [unclosed")


def test_missing_required_section():
    with pytest.raises(ConfigError, match="requires"):
        parse_config("command: check-cocycle\n")


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="command must be one of"):
        parse_config("command: frobnicate\n")


def test_tuple_keys_parse_for_gamma():
    cfg = parse_config(
        """
command: build-spectrum
spectrum:
  family: tower3d
  beta: {default: 0.0, table: {"1": 0.5}}
  gamma: {default: 0.0, table: {"1,2": 0.25, "-1,0": 0.75}}
window: {radius: 1}
"""
    )
    gamma = cfg.spectrum.levels[2]
    assert gamma(1, 2) == 0.25
    assert gamma(-1, 0) == 0.75


def test_tower_family_parses_levels():
    cfg = parse_config(
        """
command: build-spectrum
spectrum:
  family: tower
  levels:
    - {default: 0.25}
    - {default: 0.0, table: {"1": 0.5}}
    - {default: 0.0, table: {"1,2": 0.3}}
window: {radius: 1}
"""
    )
    assert cfg.spectrum.dimension == 3
    assert cfg.spectrum.levels[0]() == 0.25
    assert cfg.spectrum.levels[1](1) == 0.5
    assert cfg.spectrum.levels[2](1, 2) == 0.3


def test_tower_level_arity_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        parse_config(
            """
command: build-spectrum
spectrum:
  family: tower
  levels:
    - {default: 0.25, table: {"0": 0.5}}
window: {radius: 1}
"""
        )


def test_bad_tuple_key_is_error():
    with pytest.raises(ConfigError, match="comma-joined"):
        parse_config(
            """
command: build-spectrum
spectrum:
  family: tower3d
  beta: {default: 0.0}
  gamma: {default: 0.0, table: {"a,b": 0.25}}
window: {radius: 1}
"""
        )


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.yaml")


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_success_and_artifacts(tmp_path):
    cfg = write(tmp_path, "cfg.yaml", CLASS_A)
    out = tmp_path / "out"
    assert main(["verify-pair", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "result: PASS" in report
    assert (out / "gram.txt").exists()
    assert "op=exponentials.orthogonality_verdict" in report


def test_cli_failing_verdict_exits_one(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: check-cocycle
cocycle:
  a: {default: 0.0, table: {"0": 0.25}}
  b: {default: 0.0, table: {"1": 0.4}}
  window: {radius: 3}
""",
    )
    out = tmp_path / "out"
    assert main(["check-cocycle", "--config", cfg, "--out", str(out)]) == 1
    report = (out / "report.txt").read_text()
    assert "verdict: FAIL" in report
    assert "witness" in report


def test_cli_schema_error_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.yaml", "command: root-scan\nbogus: 1\n")
    out = tmp_path / "out"
    code = main(["root-scan", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1  # single machine-parsable line


def test_cli_command_mismatch_is_error(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.yaml", MINIMAL)
    code = main(["check-tiling", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "declares command" in capsys.readouterr().err


def test_cli_window_cap_breach_is_error(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: build-spectrum
spectrum: {family: translated-lattice, alpha_vector: [0.1, 0.2]}
window: {ranges: [[-2000, 2000], [-2000, 2000]]}
""",
    )
    code = main(["build-spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cardinality" in capsys.readouterr().err


def test_cli_seed_override_changes_header(tmp_path):
    cfg = write(tmp_path, "cfg.yaml", CLASS_A)
    out = tmp_path / "out"
    main(["verify-pair", "--config", cfg, "--out", str(out), "--seed", "99"])
    assert "seed: 99" in (out / "report.txt").read_text()


def test_cli_build_spectrum_writes_points(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: build-spectrum
spectrum: {family: translated-lattice, alpha_vector: [0.25]}
window: {ranges: [[-1, 1]]}
""",
    )
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "spectrum.txt").read_text().strip().splitlines()
    assert len(table) == 3
    assert table[0].startswith("-7.5")


def test_cli_deterministic_outputs(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: simulate-groups
seed: 11
groups:
  a: {default: 0.0}
  b: {default: 0.0, table: {"0": 0.3}}
  window: {radius: 4}
  grid_n: 32
  times: [0.25, 0.5]
  sub_radius: 1
  n_random: 2
""",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate-groups", "--config", cfg, "--out", str(out)]) == 0
        outs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
            }
        )
    assert outs[0] == outs[1]


def test_cli_verify_pair_failure_reports_witness(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: verify-pair
domain: {kind: unit-cube, dimension: 2}
spectrum: {family: explicit, points: [[0.0, 0.0], [0.25, 0.0]]}
window: {radius: 0}
""",
    )
    out = tmp_path / "out"
    assert main(["verify-pair", "--config", cfg, "--out", str(out)]) == 1
    report = (out / "report.txt").read_text()
    assert "verdict: FAIL" in report
    assert "witness pair" in report


def test_cli_help_and_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "verify-pair" in capsys.readouterr().out


def test_cli_window_too_small_is_error(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: check-cocycle
cocycle:
  a: {default: 0.0}
  b: {default: 0.0}
  window: {ranges: [[0, 0], [0, 2]]}
""",
    )
    code = main(["check-cocycle", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "shift" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# class-a and tower3d: config spellings of one tower
# ---------------------------------------------------------------------------

CLASS_A_SPECTRUM = """
spectrum:
  family: class-a
  alpha: 0.25
  beta: {default: 0.0, table: {"0": 0.2, "1": 0.5}}
"""

TOWER_2LEVEL = """
spectrum:
  family: tower
  levels:
    - {default: 0.25}
    - {default: 0.0, table: {"0": 0.2, "1": 0.5}}
"""

# alpha + Z^2 with alpha outside [0, 1)^2, and its tower of constant levels
LATTICE = """
spectrum:
  family: translated-lattice
  alpha_vector: [1.25, -0.5]
"""

TOWER_CONSTANT = """
spectrum:
  family: tower
  levels:
    - {default: 0.25}
    - {default: 0.5}
"""

# the sections besides the spectrum that each command reads
PLANAR_SECTIONS = {
    "build-spectrum": "window: {radius: 2}\n",
    "verify-pair": "domain: {kind: unit-cube, dimension: 2}\nwindow: {radius: 2}\n"
    "tiling: {window: 4, resolution: 32}\n",
    "check-tiling": "tiling: {window: 4, resolution: 32}\n",
}

TOWER3D = """
spectrum:
  family: tower3d
  beta: {default: 0.0, table: {"1": 0.5, "-1": 0.25}}
  gamma: {default: 0.1, table: {"1,2": 0.25, "-1,0": 0.75}}
"""

TOWER_3LEVEL = """
spectrum:
  family: tower
  levels:
    - {default: 0.0}
    - {default: 0.0, table: {"1": 0.5, "-1": 0.25}}
    - {default: 0.1, table: {"1,2": 0.25, "-1,0": 0.75}}
"""

SOLID_SECTIONS = {
    "build-spectrum": "window: {radius: 2}\n",
    "check-tiling": "tiling: {window: 2, resolution: 8}\n",
}


def run_artifacts(tmp_path, name, spectrum, sections, command):
    """Run `spectrum` and the sections `command` reads as `command`;
    return (exit status, artifacts).

    The report's "config:" line names the config path and is left out.
    """
    text = f"command: {command}\nseed: 5{spectrum}{sections[command]}"
    cfg = write(tmp_path, f"{name}.yaml", text)
    out = tmp_path / name
    code = main([command, "--config", cfg, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    report = files.pop("report.txt").decode().splitlines()
    files["report.txt"] = [line for line in report if not line.startswith("config:")]
    return code, files


@pytest.mark.parametrize("command", ["build-spectrum", "verify-pair", "check-tiling"])
def test_class_a_and_two_level_tower_give_identical_artifacts(tmp_path, command):
    expected = {
        "build-spectrum": "spectrum.txt",
        "verify-pair": "gram.txt",
        "check-tiling": "tiling.svg",
    }
    for name, family, tower in [
        ("class_a", CLASS_A_SPECTRUM, TOWER_2LEVEL),
        ("lattice", LATTICE, TOWER_CONSTANT),
    ]:
        code_a, files_a = run_artifacts(
            tmp_path, name, family, PLANAR_SECTIONS, command
        )
        code_t, files_t = run_artifacts(
            tmp_path, f"{name}_tower", tower, PLANAR_SECTIONS, command
        )
        assert code_a == code_t == 0
        assert expected[command] in files_a
        assert files_a == files_t
        if command == "check-tiling":
            assert b"<text" in files_t["tiling.svg"]


@pytest.mark.parametrize("command", ["build-spectrum", "check-tiling"])
def test_tower3d_and_three_level_tower_give_identical_artifacts(tmp_path, command):
    code_a, files_a = run_artifacts(
        tmp_path, "tower3d", TOWER3D, SOLID_SECTIONS, command
    )
    code_t, files_t = run_artifacts(
        tmp_path, "tower", TOWER_3LEVEL, SOLID_SECTIONS, command
    )
    assert code_a == code_t == 0
    if command == "build-spectrum":
        assert len(files_a["spectrum.txt"].splitlines()) == 125
    assert files_a == files_t


@pytest.mark.parametrize("family", ["class-a", "class-b"])
def test_planar_alpha_outside_unit_interval_exits_two(tmp_path, capsys, family):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        f"""
command: check-tiling
spectrum:
  family: {family}
  alpha: 1.3
  beta: {{default: 0.0, table: {{"0": 0.2}}}}
tiling: {{window: 4, resolution: 16}}
""",
    )
    out = tmp_path / "out"
    assert main(["check-tiling", "--config", cfg, "--out", str(out)]) == 2
    assert "alpha 1.3 outside [0,1)" in capsys.readouterr().err
    assert not out.exists()


def test_a_tiny_negative_lattice_offset_loads_as_zero(tmp_path):
    # -1e-17 % 1.0 rounds to 1.0, which no level holds: the offset is 0.0
    text = (
        "command: check-tiling\ntiling: {window: 4, resolution: 16}\n"
        "spectrum: {family: translated-lattice, alpha_vector: [-1.0e-17, 0.5]}\n"
    )
    levels = parse_config(text).spectrum.levels
    assert [level.default for level in levels] == [0.0, 0.5]
    cfg = write(tmp_path, "cfg.yaml", text)
    assert main(["check-tiling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "spectrum",
    [
        "{family: explicit, points: [[.inf, 0.0], [0.0, 0.0]]}",
        "{family: explicit, points: [[.nan, 0.0]]}",
        "{family: translated-lattice, alpha_vector: [-.inf, 0.0]}",
    ],
)
def test_non_finite_spectrum_exits_two_without_output(tmp_path, capsys, spectrum):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        f"command: build-spectrum\nspectrum: {spectrum}\nwindow: {{radius: 1}}\n",
    )
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize(
    "component",
    [
        "{period: .nan, cosine_amplitude: 0.1}",
        "{period: .inf, cosine_amplitude: 0.1}",
        '{period: 1.5, coeffs: {"1": [.nan, 0.0], "-1": [.nan, 0.0]}}',
        '{period: 1.5, coeffs: {"1": [.inf, 0.0], "-1": [.inf, 0.0]}}',
    ],
)
def test_non_finite_diffraction_component_exits_two_without_output(
    tmp_path, capsys, component
):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        f"""
command: diffraction
diffraction:
  components:
    - {component}
  test_function: {{center: [0.0, 0.0], widths: [1.0, 1.0]}}
  lambda_window: 20
  k_radius: 4
""",
    )
    out = tmp_path / "out"
    assert main(["diffraction", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        (
            "check-cocycle",
            'cocycle: {a: {table: {"1": .nan}}, b: {default: 0.0}, window: {radius: 2}}',
        ),
        (
            "check-cocycle",
            'cocycle: {a: {table: {"1": .inf}}, b: {default: 0.0}, window: {radius: 2}}',
        ),
        (
            "simulate-groups",
            "groups: {a: {default: 0.0}, b: {default: .nan}, window: {radius: 2}, "
            "grid_n: 16, times: [0.25], sub_radius: 1, n_random: 1}",
        ),
        ("simulate-groups", "groups: {phases: [.nan, 0.0], times: [0.25]}"),
        ("simulate-groups", "groups: {times: [0.25, .inf]}"),
        ("simulate-groups", "groups: {leakage_tol: .nan}"),
    ],
)
def test_non_finite_phase_exits_two_without_output(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "cfg.yaml", f"command: {command}\n{text}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_internal_error_exits_three_with_one_stderr_line(
    tmp_path, capsys, monkeypatch
):
    def broken(cfg, report, outdir):
        raise KeyError("missing")

    monkeypatch.setitem(cli._DISPATCH, "root-scan", broken)
    cfg = write(tmp_path, "cfg.yaml", MINIMAL)
    status = main(["root-scan", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: KeyError: 'missing'"]


TOWER3D_TILING = """
command: check-tiling
spectrum:
  family: tower3d
  beta: {default: 0.0, table: {"1": 0.5}}
  gamma: {default: 0.1, table: {"1,0": 0.75}}
"""


@pytest.mark.parametrize(
    "tiling, message",
    [
        ("{window: 0, resolution: 16}", "torus window must be >= 1"),
        ("{window: -2, resolution: 16}", "torus window must be >= 1"),
        ("{window: 2, resolution: 4}", "too coarse"),
        ("{window: 40, resolution: 64}", "more than 16777216"),
    ],
)
def test_bad_tiling_window_exits_two_without_output(
    tmp_path, capsys, tiling, message
):
    with pytest.raises(ConfigError, match=message):
        parse_config(TOWER3D_TILING + f"tiling: {tiling}\n")
    cfg = write(tmp_path, "cfg.yaml", TOWER3D_TILING + f"tiling: {tiling}\n")
    out = tmp_path / "out"
    assert main(["check-tiling", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tiling: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_four_level_tower_check_tiling_exits_zero(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.yaml",
        """
command: check-tiling
spectrum:
  family: tower
  levels:
    - {default: 0.25}
    - {default: 0.0, table: {"1": 0.5}}
    - {default: 0.1, table: {"1,2": 0.25}}
    - {default: 0.0, table: {"0,1,2": 0.375, "3,3,3": 0.5}}
tiling: {window: 4, resolution: 8}
""",
    )
    out = tmp_path / "out"
    assert main(["check-tiling", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.txt"]
    report = (out / "report.txt").read_text()
    assert "excluded_face_samples" in report and "FAIL" not in report


CUBE_PAIR = """
command: verify-pair
spectrum:
  family: class-a
  alpha: 0.25
  beta: {default: 0.0}
"""


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "verify-pair",
            CUBE_PAIR + "domain: {kind: unit-cube, dimension: 3}\nwindow: {radius: 1}",
            "differs from the spectrum's dimension 2",
        ),
        (
            "verify-pair",
            CUBE_PAIR
            + "domain: {kind: interval-union, intervals: [[0, 1]]}\nwindow: {radius: 1}",
            "differs from the spectrum's dimension 2",
        ),
        (
            "verify-pair",
            CUBE_PAIR
            + "domain: {kind: unit-cube, intervals: [[0, 1]]}\nwindow: {radius: 1}",
            "['intervals']",
        ),
        (
            "verify-pair",
            CUBE_PAIR
            + "domain: {kind: interval-union, dimension: 2, intervals: [[0, 1]]}\n"
            "window: {radius: 1}",
            "['dimension']",
        ),
        (
            "verify-pair",
            "command: verify-pair\nspectrum: {family: explicit, points: [[0.0], [1.0]]}\n"
            "domain: {kind: interval-union, intervals: [[0, .inf]]}\nwindow: {radius: 1}",
            "non-finite endpoint",
        ),
        (
            "verify-pair",
            CUBE_PAIR + "domain: {kind: unit-cube, dimension: .inf}\nwindow: {radius: 1}",
            "domain.dimension: inf is not an integer",
        ),
        (
            "verify-pair",
            CUBE_PAIR + "domain: {kind: unit-cube}\nwindow: {radius: 1.9}",
            "window.radius: 1.9 is not an integer",
        ),
        ("root-scan", MINIMAL + "seed: .inf", "seed: inf is not an integer"),
        (
            "root-scan",
            "command: root-scan\nrootscan: {coefficients: [1, 1], samples: .inf}",
            "rootscan.samples: inf is not an integer",
        ),
        (
            "root-scan",
            "command: root-scan\nrootscan: {coefficients: [1, .nan], samples: 64}",
            "not finite",
        ),
        (
            "root-scan",
            "command: root-scan\nrootscan: {coefficients: [1, [0, .inf]], samples: 64}",
            "not finite",
        ),
        (
            "root-scan",
            "command: root-scan\nrootscan: {coefficients: [1, 1], samples: 8}",
            "rootscan.samples: 8 is below 16",
        ),
    ],
)
def test_bad_domain_and_number_input_exits_two_without_output(
    tmp_path, capsys, command, text, message
):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    cfg = write(tmp_path, "cfg.yaml", text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


ONE_COSINE = (
    "command: diffraction\n"
    "diffraction: {components: [{period: 1.5, cosine_amplitude: 0.1}], "
)


@pytest.mark.parametrize(
    "text, where",
    [
        ("command: check-cocycle\ncocycle: {window: {ranges: [[-2, 2.5], [0, 1]]}}",
         "cocycle.window.ranges"),
        ('command: check-cocycle\ncocycle: {a: {table: {1.5: 0.25}}}', "cocycle.a.table"),
        ("command: simulate-groups\ngroups: {grid_n: .inf}", "groups.grid_n"),
        ("command: simulate-groups\ngroups: {sub_radius: 1.5}", "groups.sub_radius"),
        ("command: simulate-groups\ngroups: {n_random: .nan}", "groups.n_random"),
        ("command: check-tiling\nspectrum: {family: class-a}\ntiling: {window: 2.5}",
         "tiling.window"),
        ("command: check-tiling\nspectrum: {family: class-a}\ntiling: {resolution: .inf}",
         "tiling.resolution"),
        (ONE_COSINE + "lambda_window: 20.5}", "diffraction.lambda_window"),
        (ONE_COSINE + "k_radius: -.inf}", "diffraction.k_radius"),
        ("command: diffraction\ndiffraction: {components: "
         "[{period: 1.5, cosine_amplitude: 0.1, harmonic: 1.5}]}",
         "diffraction.components[0].harmonic"),
        ("command: diffraction\ndiffraction: {components: "
         "[{period: 1.5, coeffs: {2.5: 0.1}}]}", "diffraction.components[0].coeffs"),
    ],
)
def test_fractional_or_non_finite_integer_field_is_config_error(text, where):
    with pytest.raises(ConfigError, match=re.escape(where) + ": .* is not an integer"):
        parse_config(text)


def test_integral_float_still_reads_as_an_integer():
    cfg = parse_config(CLASS_A.replace("radius: 2", "radius: 2.0"))
    assert cfg.window.cardinality == 25


def assert_load_error(tmp_path, capsys, text, message):
    """`text` fails in parse_config and, through main, exits 2 with one
    stderr line and no output directory."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    command = re.search(r"^command: (\S+)$", text, flags=re.M).group(1)
    cfg = write(tmp_path, "cfg.yaml", text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


ONE_PERIOD = "command: diffraction\ndiffraction: {components: [{period: 1.5, "


@pytest.mark.parametrize(
    "text, message",
    [
        ("command: build-spectrum\nspectrum: {family: translated-lattice, "
         "alpha_vector: [0.1, 0.2]}\nwindow: {ranges: [1, 2]}",
         "window.ranges: 1 is not a list"),
        ("command: simulate-groups\ngroups: {phases: [0.1]}",
         "groups.phases: expected 2 entries, got [0.1]"),
        ("command: simulate-groups\ngroups: {times: 0.5}", "groups.times: 0.5 is not a list"),
        ("command: simulate-groups\ngroups: {times: []}",
         "groups.times: needs at least one entry"),
        ("command: build-spectrum\nspectrum: {family: translated-lattice, "
         "alpha_vector: []}\nwindow: {radius: 1}",
         "spectrum.alpha_vector: needs at least one entry"),
        ("command: root-scan\nrootscan: {coefficients: [[1]]}",
         "rootscan.coefficients: expected 2 entries, got [1]"),
        ("command: root-scan\nrootscan: {coefficients: [{a: 1}]}",
         "rootscan.coefficients: {'a': 1} is not a real number"),
        ('command: check-cocycle\ncocycle: {a: {table: {"1": [0.5]}}}',
         "cocycle.a.table: [0.5] is not a real number"),
        ("command: diffraction\ndiffraction: {components: [{cosine_amplitude: 0.1}]}",
         "diffraction.components[0]: missing required key 'period'"),
        (ONE_PERIOD + 'coeffs: {"1": {x: 1}}}]}',
         "diffraction.components[0].coeffs: {'x': 1} is not a real number"),
        (ONE_PERIOD + "cosine_amplitude: 0.1}], test_function: {center: [0.2]}}",
         "diffraction.test_function.center: expected 2 entries, got [0.2]"),
    ],
)
def test_malformed_shape_exits_two_at_load(tmp_path, capsys, text, message):
    assert_load_error(tmp_path, capsys, text, message)


# a config of a command that reads the tolerance, before its tolerances section
READS_TOLERANCE = {
    "eq_tol": 'command: check-cocycle\ncocycle: {a: {table: {"0": 0.25}}, window: {radius: 3}}',
    "num_tol": MINIMAL.strip(),
}


@pytest.mark.parametrize("key", ["eq_tol", "num_tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_exits_two_at_load(tmp_path, capsys, key, value):
    text = f"{READS_TOLERANCE[key]}\ntolerances: {{{key}: .{value}}}"
    assert_load_error(tmp_path, capsys, text, f"tolerances.{key}: {value} is not finite")


# the bound is the least positive float
@pytest.mark.parametrize("key, value", [("eq_tol", "0"), ("num_tol", "-1.0e-9")])
def test_tolerance_that_is_not_positive_exits_two_at_load(tmp_path, capsys, key, value):
    text = f"{READS_TOLERANCE[key]}\ntolerances: {{{key}: {value}}}"
    message = f"tolerances.{key}: {float(value)!r} is below 5e-324"
    assert_load_error(tmp_path, capsys, text, message)


# no command reads a quadrature node count or a tolerance grid size
@pytest.mark.parametrize("knob", ["quad_n: 2048", "grid_n: 256", "grid_n: 64.5"])
def test_quad_n_and_grid_n_tolerances_exit_two_at_load(tmp_path, capsys, knob):
    text = f"{MINIMAL.strip()}\ntolerances: {{{knob}}}"
    key = knob.split(":")[0]
    assert_load_error(tmp_path, capsys, text, f"unknown key(s) [{key!r}] in tolerances")


GROUPS = "command: simulate-groups\ngroups: "
COCYCLE = "command: check-cocycle\ncocycle: "
STAIRCASE = (
    "command: check-tiling\n"
    "spectrum: {{family: {family}, alpha: {alpha}, beta: {{default: 0.0}}}}"
)
DIFFRACTION = ONE_PERIOD + "cosine_amplitude: 0.1}], "
PAIR = (
    "command: verify-pair\ndomain: {kind: unit-cube, dimension: 2}\n"
    "spectrum: {family: class-a, alpha: 0.25}\n"
)
EXPLICIT_PAIR = (
    "command: verify-pair\ndomain: {kind: unit-cube, dimension: 2}\n"
    "spectrum: {family: explicit, points: %s}\nwindow: {radius: 1}"
)
EXPLICIT_BARE = EXPLICIT_PAIR.replace("\nwindow: {radius: 1}", "")
ROOTSCAN = "command: root-scan\nrootscan: {coefficients: %s, samples: %d}"


@pytest.mark.parametrize(
    "text, message",
    [
        (GROUPS + "{times: [0.25, -0.5]}", "groups.times: -0.5 is below 0"),
        (GROUPS + "{n_random: -1}", "groups.n_random: -1 is below 0"),
        (GROUPS + "{sub_radius: -2}", "groups.sub_radius: -2 is below 0"),
        (DIFFRACTION + "lambda_window: -20}", "diffraction.lambda_window: -20 is below 0"),
        (DIFFRACTION + "k_radius: -1}", "diffraction.k_radius: -1 is below 0"),
        (DIFFRACTION + "test_function: {widths: [.nan, 1.0]}}",
         "diffraction.test_function.widths: nan is not finite"),
        (DIFFRACTION + "test_function: {center: [0.0, .nan]}}",
         "diffraction.test_function.center: nan is not finite"),
        (STAIRCASE.format(family="class-a", alpha=1.0),
         "spectrum: alpha 1.0 outside [0,1)"),
        (STAIRCASE.format(family="class-b", alpha=-0.1),
         "spectrum: alpha -0.1 outside [0,1)"),
        # phase tables of the 2-D pair
        (COCYCLE + "{a: {default: 1.0}}", "cocycle.a: default 1.0 outside [0,1)"),
        (COCYCLE + '{b: {table: {"0": -0.25}}}',
         "cocycle.b: table value -0.25 at (0,) outside [0,1)"),
        (GROUPS + '{a: {table: {"1": 1.5}}}',
         "groups.a: table value 1.5 at (1,) outside [0,1)"),
        (GROUPS + "{b: {default: -0.5}}", "groups.b: default -0.5 outside [0,1)"),
        (GROUPS + '{b: {default: 0.0, table: {"2": 0.25, "3": 1.0}}}',
         "groups.b: table value 1.0 at (3,) outside [0,1)"),
    ],
)
def test_out_of_range_value_exits_two_at_load(tmp_path, capsys, text, message):
    assert_load_error(tmp_path, capsys, text, message)


@pytest.mark.parametrize(
    "text, message",
    [
        (GROUPS + "{times: [0.1]}",
         "groups: time 0.1 is not a multiple of the grid step 1/64"),
        (GROUPS + "{grid_n: 4, window: {radius: 2}}",
         "groups: window range (-2,2) does not fit in 4 grid modes"),
        (GROUPS + "{grid_n: 0}", "groups.grid_n: 0 is below 1"),
        (GROUPS + "{leakage_tol: -1.0}", "groups.leakage_tol: -1.0 is below 0"),
        (GROUPS + "{window: {ranges: [[0, 0], [0, 2]]}}",
         "groups.window: need at least two indices per axis"),
        ("command: check-cocycle\ncocycle: {window: {ranges: [[0, 0], [0, 2]]}}",
         "cocycle.window: need at least two indices per axis"),
        # inside the 10^6-point window cap, but 999^4 single-identity
        # comparisons would take hours
        ("command: check-cocycle\ncocycle: {window: {radius: 499}}",
         "cocycle: window 999 x 999 needs 996005996001 single-identity "
         "comparisons, more than 100000000"),
        ("command: check-cocycle\ncocycle: {window: {ranges: [[0, 1], [-2500, 2500]]}}",
         "comparisons, more than 100000000"),
    ],
)
def test_sweep_input_the_run_would_reject_exits_two_at_load(
    tmp_path, capsys, text, message
):
    assert_load_error(tmp_path, capsys, text, message)


TWO_COMPONENTS = (
    "command: diffraction\ndiffraction: {components: ["
    "{period: 1.5556349186104046, cosine_amplitude: 0.15}, "
    '{period: 1.9052558883257650, coeffs: {"1": [0.03, 0.0], "-1": [0.03, 0.0]}}], '
)


# the parse refuses first, so no oversize config ever runs
@pytest.mark.parametrize(
    "text, message",
    [
        # harmonics k and k + 4096 would read one coefficient
        (DIFFRACTION + "k_radius: 2048}",
         "diffraction: k_radius 2048 aliases: 4097 harmonics exceed the 4096 "
         "samples per period"),
        (DIFFRACTION + "lambda_window: 100000000}",
         "diffraction: the direct sum has 2200000011 terms, more than 4194304"),
        (TWO_COMPONENTS + "k_radius: 200}",
         "diffraction: the density has 1768811 terms, more than 1048576"),
        # 10.75 GB of complex entries
        (GROUPS + "{window: {radius: 80}, grid_n: 192}",
         "groups: the spectral matrix of a 25921-mode window needs more than "
         "268435456 bytes"),
        (GROUPS + "{window: {radius: 32}, grid_n: 72}",
         "groups: the spectral matrix of a 4225-mode window"),
        # a 65536^2 probe grid alone is 68.7 GB
        (GROUPS + "{grid_n: 65536}",
         "groups: the sweep's two extensions of 5 x 98304 rows and 25 "
         "working states of a 65536^2 grid need more than 268435456 bytes"),
        (GROUPS + "{grid_n: 1024}",
         "groups: the sweep's two extensions of 5 x 1536 rows and 25 "
         "working states of a 1024^2 grid"),
        # with one time the spectral check's stack is the larger
        (GROUPS + "{grid_n: 1450, times: [0.5]}",
         "groups: the spectral check's 8 probes of a 1450^2 grid need more "
         "than 268435456 bytes"),
        # 20 475 masses of 6.4e6 comb samples each, about 15 minutes
        (DIFFRACTION + "test_function: {widths: [1.0e6, 1.0e6]}, k_radius: 2047}",
         "diffraction: the pairing has 131174950725 terms, more than 134217728"),
        # a 26 GB Gram, its codes and its text
        (PAIR + "window: {radius: 100}",
         "window: 40401 points in dimension 2 need up to 470085350688 bytes for "
         "the Gram matrix, its codes and its text, more than 1073741824"),
        (PAIR + "window: {radius: 22}", "window: 2025 points in dimension 2"),
        # an explicit spectrum is sized by its points, not by the window
        (EXPLICIT_PAIR % [[float(i), 0.5] for i in range(1931)],
         "spectrum: 1931 points in dimension 2"),
        (EXPLICIT_BARE % [[float(i), 0.5] for i in range(1931)],
         "spectrum: 1931 points in dimension 2"),
        # 2^63 angles, a scan that would never end
        (ROOTSCAN % ([1, 1], 2**63),
         "rootscan: 9223372036854775808 samples of a degree-1 polynomial need "
         "36893488147419103232 Horner steps for the rescan at twice the "
         "samples, more than 134217728"),
        (ROOTSCAN % ([1.0] * 7, 9586981), "samples of a degree-6 polynomial"),
    ],
)
def test_oversize_input_exits_two_at_load(tmp_path, capsys, text, message):
    assert_load_error(tmp_path, capsys, text, message)


@pytest.mark.parametrize(
    "text",
    [
        DIFFRACTION + "k_radius: 2047}",
        DIFFRACTION + "lambda_window: 190000}",
        # the benchmark's diffraction job at its widest test function
        TWO_COMPONENTS
        + "test_function: {widths: [0.9, 0.9]}, lambda_window: 400, k_radius: 16}",
        GROUPS + "{window: {radius: 31}, grid_n: 64}",
        # the benchmark's groups-sweep size
        GROUPS + "{window: {radius: 8}, grid_n: 64, times: [0.125, 0.25, 0.375, 0.5, 0.625]}",
        # exactly at the sweep cap: 16 * 1024 * 2 * (2 * 1536 + 5 * 1024) bytes
        GROUPS + "{grid_n: 1024, times: [0.0, 0.5]}",
        # the spectral check's stack at its edge, past the one-time sweep
        GROUPS + "{grid_n: 1448, times: [0.5]}",
        # 1 089 points, about 250 MB
        PAIR + "window: {radius: 16}",
        PAIR + "window: {radius: 21}",
        EXPLICIT_PAIR % [[float(i), 0.5] for i in range(1930)],
        # the benchmark's degree-6 job, also at its 2e6-sample rescan size,
        # acceptance criterion 08's larger scan, and the cap itself
        ROOTSCAN % ([1.0] * 7, 1_000_000),
        ROOTSCAN % ([1.0] * 7, 2_000_000),
        ROOTSCAN % ([1, 0, 1, 1], 200_000),
        ROOTSCAN % ([1.0] * 7, 9586980),
        ROOTSCAN % ([1.0], 2**26),
    ],
)
def test_sizes_under_the_caps_load(text):
    parse_config(text)


@pytest.mark.parametrize(
    "times, edge, above, rows",
    [
        # windows that do not overlap: two extensions of 5 x 5 grid_n rows
        ("[0, 1, 2, 3, 4]", 472, 473, 5 * 473),
        # the default times chain into one run of 1.5 grid_n rows; the
        # next grid they lie on is 8 steps up
        ("[0.125, 0.25, 0.375, 0.5, 0.625]", 640, 648, 972),
    ],
)
def test_five_time_sweep_loads_at_its_edge_and_exits_two_one_step_above(
    tmp_path, capsys, times, edge, above, rows
):
    parse_config(GROUPS + f"{{grid_n: {edge}, times: {times}}}")
    assert_load_error(
        tmp_path, capsys, GROUPS + f"{{grid_n: {above}, times: {times}}}",
        f"groups: the sweep's two extensions of 5 x {rows} rows and 25 working "
        f"states of a {above}^2 grid need more than 268435456 bytes",
    )


@pytest.mark.parametrize(
    "window", ["{radius: 32}", "{radius: 49}", "{ranges: [[0, 1], [-2499, 2500]]}"]
)
def test_check_cocycle_windows_under_the_work_cap_load(window):
    cfg = parse_config(f"command: check-cocycle\ncocycle: {{window: {window}}}\n")
    m, n = (hi - lo + 1 for lo, hi in cfg.cocycle["window"].ranges)
    assert m * m * n * n <= 10**8


# ---------------------------------------------------------------------------
# every key is read: sections by command, keys by spectrum family, one
# window form
# ---------------------------------------------------------------------------

def test_the_cli_docstring_command_table_matches_commands():
    # "command  required; optional | tolerances", one line per command
    rows = re.findall(r"^    ([a-z-]+) {2,}(\S.*)$", cli.__doc__, flags=re.M)
    table = {}
    for command, text in rows:
        sections, _, tolerances = text.partition(" | ")
        required, _, optional = sections.partition("; ")
        table[command] = tuple(
            tuple(part.split(", ")) if part else ()
            for part in (required, optional, tolerances)
        )
    assert table == config.COMMANDS


# a valid value of each tolerance, other than its default
TOLERANCE_TEXT = {"eq_tol": "2.5e-10", "num_tol": "3.0e-8"}


def tolerances_text(keys):
    return f"tolerances: {{{', '.join(f'{key}: {TOLERANCE_TEXT[key]}' for key in keys)}}}"


# a valid text of each section; a tolerances section holds every tolerance
# here and, in command_text, those its command reads
SECTION_TEXT = {
    "tolerances": tolerances_text(TOLERANCE_TEXT),
    "domain": "domain: {kind: unit-cube, dimension: 2}",
    "spectrum": "spectrum: {family: class-a, alpha: 0.25}",
    "window": "window: {radius: 1}",
    "cocycle": "cocycle: {window: {radius: 2}}",
    "groups": "groups: {window: {radius: 2}, grid_n: 16, times: [0.25]}",
    "tiling": "tiling: {window: 4, resolution: 16}",
    "diffraction": "diffraction: {components: [{period: 1.5, cosine_amplitude: 0.1}]}",
    "rootscan": "rootscan: {coefficients: [1, 1], samples: 64}",
}
# the sections each command reads
READS = {
    "verify-pair": ("domain", "spectrum", "window", "tiling", "tolerances"),
    "build-spectrum": ("spectrum", "window"),
    "check-cocycle": ("cocycle", "tolerances"),
    "simulate-groups": ("groups", "tolerances"),
    "check-tiling": ("spectrum", "tiling"),
    "diffraction": ("diffraction",),
    "root-scan": ("rootscan", "tolerances"),
}
# the tolerances each command reads, in the order its report lists them
READS_TOLERANCES = {
    "verify-pair": ("eq_tol", "num_tol"),
    "build-spectrum": (),
    "check-cocycle": ("eq_tol",),
    "simulate-groups": ("eq_tol", "num_tol"),
    "check-tiling": (),
    "diffraction": (),
    "root-scan": ("num_tol",),
}


def command_text(command, sections):
    text = dict(SECTION_TEXT)
    if READS_TOLERANCES[command]:
        text["tolerances"] = tolerances_text(READS_TOLERANCES[command])
    return "\n".join([f"command: {command}", "seed: 3"] + [
        text[name] for name in sections
    ])


@pytest.mark.parametrize("command", sorted(READS))
def test_a_config_of_every_section_its_command_reads_loads(command):
    assert parse_config(command_text(command, READS[command])).command == command


@pytest.mark.parametrize("command, section", [
    (command, section)
    for command in sorted(READS)
    for section in SECTION_TEXT
    if section not in READS[command]
])
def test_a_section_the_command_does_not_read_exits_two_at_load(
    tmp_path, capsys, command, section
):
    text = command_text(command, READS[command] + (section,))
    assert_load_error(
        tmp_path, capsys, text, f"unknown key(s) [{section!r}] in a {command} config"
    )


# a command that reads no tolerance refuses the section itself (above)
@pytest.mark.parametrize("command, key", [
    (command, key)
    for command in sorted(READS)
    for key in TOLERANCE_TEXT
    if READS_TOLERANCES[command] and key not in READS_TOLERANCES[command]
])
def test_a_tolerance_the_command_does_not_read_exits_two_at_load(
    tmp_path, capsys, command, key
):
    sections = [name for name in READS[command] if name != "tolerances"]
    text = f"{command_text(command, sections)}\n{tolerances_text([key])}"
    assert_load_error(tmp_path, capsys, text, f"unknown key(s) [{key!r}] in tolerances")


@pytest.mark.parametrize("command", sorted(READS))
def test_the_report_lists_the_tolerances_its_command_reads(tmp_path, command):
    cfg = write(tmp_path, "cfg.yaml", command_text(command, READS[command]) + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1)
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    lines = [line for line in report.splitlines() if line.startswith("tolerances:")]
    # in the order the command declares them; none for a command that reads none
    listed = " ".join(
        f"{key}={float(TOLERANCE_TEXT[key]):.12e}" for key in READS_TOLERANCES[command]
    )
    assert lines == ([f"tolerances: {listed}"] if listed else [])


def test_simulate_groups_states_the_spectral_check_bound(tmp_path):
    text = command_text("simulate-groups", READS["simulate-groups"]) + "\n"
    cfg = write(tmp_path, "cfg.yaml", text)
    assert main(["simulate-groups", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    check = report.split("[check] op=groups.group_matrix_spectral\n")[1].split("[check]")[0]
    # ten times num_tol
    assert f"  mismatch_bound: {10 * float(TOLERANCE_TEXT['num_tol']):.12e}\n" in check


# a valid value of each family key, and the keys each family reads
FAMILY_KEY_TEXT = {
    "alpha": "0.25",
    "alpha_vector": "[0.1, 0.2]",
    "beta": "{default: 0.5}",
    "gamma": "{default: 0.5}",
    "levels": "[{default: 0.5}, {default: 0.25}]",
    "points": "[[0.0, 0.5]]",
}
FAMILY_KEYS = {
    "translated-lattice": ("alpha_vector",),
    "class-a": ("alpha", "beta"),
    "class-b": ("alpha", "beta"),
    "tower": ("levels",),
    "tower3d": ("beta", "gamma"),
    "explicit": ("points",),
}


def spectrum_text(family, keys):
    entries = [f"family: {family}"] + [f"{key}: {FAMILY_KEY_TEXT[key]}" for key in keys]
    return f"command: build-spectrum\nspectrum: {{{', '.join(entries)}}}\nwindow: {{radius: 1}}"


@pytest.mark.parametrize("family", sorted(config._SPECTRUM_KEYS))
def test_a_spectrum_of_its_family_keys_loads(family):
    # every family loads to one of the two spectrum types
    spec = parse_config(spectrum_text(family, FAMILY_KEYS[family])).spectrum
    assert isinstance(spec, (Tower, ExplicitSpectrum))


@pytest.mark.parametrize("family, key", [
    (family, key)
    for family in sorted(FAMILY_KEYS)
    for key in FAMILY_KEY_TEXT
    # a translated lattice takes alpha in place of alpha_vector
    if key not in FAMILY_KEYS[family] and (family, key) != ("translated-lattice", "alpha")
])
def test_a_key_of_another_family_exits_two_at_load(tmp_path, capsys, family, key):
    text = spectrum_text(family, FAMILY_KEYS[family] + (key,))
    assert_load_error(
        tmp_path, capsys, text, f"unknown key(s) [{key!r}] in a {family} spectrum"
    )


@pytest.mark.parametrize("text, message", [
    ("command: build-spectrum\nspectrum: {family: class-a}\n"
     "window: {radius: 2, ranges: [[0, 9], [0, 9]]}",
     "window: needs exactly one of 'radius' and 'ranges'"),
    ("command: build-spectrum\nspectrum: {family: class-a}\nwindow: {}",
     "window: needs exactly one of 'radius' and 'ranges'"),
    (COCYCLE + "{window: {radius: 2, ranges: [[0, 3], [0, 3]]}}",
     "cocycle.window: needs exactly one of 'radius' and 'ranges'"),
    (GROUPS + "{window: {radius: 2, ranges: [[0, 3], [0, 3]]}}",
     "groups.window: needs exactly one of 'radius' and 'ranges'"),
    ("command: build-spectrum\n"
     "spectrum: {family: translated-lattice, alpha: 0.5, alpha_vector: [0.1, 0.2]}\n"
     "window: {radius: 1}",
     "spectrum: needs at most one of 'alpha' and 'alpha_vector'"),
])
def test_a_second_form_exits_two_at_load(tmp_path, capsys, text, message):
    assert_load_error(tmp_path, capsys, text, message)


@pytest.mark.parametrize("text, message", [
    # no window mode within sub_radius of the origin, and no random probe
    (GROUPS + "{window: {ranges: [[3, 5], [3, 5]]}, grid_n: 16, times: [0.25], "
     "sub_radius: 2, n_random: 0}",
     "groups.n_random: 0 random probes, and no window mode lies within "
     "sub_radius 2 of the origin"),
    (GROUPS + "{window: {ranges: [[-1, 1], [3, 5]]}, n_random: 0}",
     "groups.n_random: 0 random probes"),
    (GROUPS + "{window: {radius: 2}, grid_n: 16, times: [1.125, 0.25], "
     "sub_radius: 1, n_random: 1}",
     "groups.times: 1.125, the spectral check's time, is above 1"),
])
def test_a_sweep_the_spectral_check_cannot_run_exits_two_at_load(
    tmp_path, capsys, text, message
):
    assert_load_error(tmp_path, capsys, text, message)


@pytest.mark.parametrize("groups", [
    # one basis probe, the origin; one random probe; the last time above 1
    "{window: {ranges: [[0, 1], [0, 1]]}, sub_radius: 0, n_random: 0}",
    "{window: {ranges: [[3, 5], [3, 5]]}, grid_n: 16, times: [0.25], n_random: 1}",
    "{window: {radius: 2}, grid_n: 16, times: [1.0, 1.25], sub_radius: 1}",
])
def test_sweeps_with_a_probe_and_a_first_time_up_to_one_load(groups):
    parse_config(GROUPS + groups)


@pytest.mark.parametrize("command", ["verify-pair", "build-spectrum"])
def test_explicit_spectrum_needs_no_window(tmp_path, command):
    # no step reads the window of an explicit set
    points = [[0.0, 0.0], [1.0, 0.25], [0.5, 1.0]]
    body = {
        "verify-pair": EXPLICIT_BARE % points,
        "build-spectrum": "command: build-spectrum\n"
        f"spectrum: {{family: explicit, points: {points}}}",
    }[command]
    runs = []
    for name, text in (("windowed", body + "\nwindow: {radius: 1}\n"), ("bare", body)):
        out = tmp_path / name
        code = main([command, "--config", write(tmp_path, "cfg.yaml", text),
                     "--out", str(out)])
        runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    assert "report.txt" in runs[1][1]


@pytest.mark.parametrize("domain, points", [
    ("{kind: interval-union, intervals: [[0, 1], [2, 3]]}", "[[0], [0.25], [1], [1.25]]"),
    ("{kind: unit-cube, dimension: 1}", "[[0], [1]]"),
    ("{kind: unit-cube, dimension: 3}", "[[0, 0, 0], [1, 0, 0]]"),
])
def test_verify_pair_tiling_off_the_unit_square_exits_two_at_load(
    tmp_path, capsys, domain, points
):
    # verify-pair has no tiling line there, so it would not read the section
    text = (
        f"command: verify-pair\ndomain: {domain}\n"
        f"spectrum: {{family: explicit, points: {points}}}\n"
        "tiling: {window: 4, resolution: 32}"
    )
    assert_load_error(
        tmp_path, capsys, text, "tiling: verify-pair checks a tiling only on a 2-D unit cube"
    )


@pytest.mark.parametrize(
    "section, same",
    [
        ("{window: 4}", True),
        ("{}", True),
        ("{window: 4, resolution: 64}", True),
        ("{window: 4, resolution: 32}", False),
    ],
)
def test_verify_pair_without_tiling_section_takes_the_section_defaults(
    tmp_path, section, same
):
    # a 0.3 offset makes the overlap fraction depend on the resolution
    text = (
        "command: verify-pair\ndomain: {kind: unit-cube, dimension: 2}\n"
        "spectrum: {family: explicit, points: [[0.0, 0.0], [0.3, 0.0]]}\n"
        "window: {radius: 0}\n"
    )
    assert parse_config(text).tiling == {"window": 4, "resolution": 64}
    tiled = text + f"tiling: {section}\n"
    reports = []
    for name, body in (("default", text), ("tiled", tiled)):
        out = tmp_path / name
        assert main(["verify-pair", "--config", write(tmp_path, "cfg.yaml", body),
                     "--out", str(out)]) == 1
        reports.append((out / "report.txt").read_text())
    assert (reports[0] == reports[1]) == same


# ---------------------------------------------------------------------------
# the classification line: its own oracle, against the shift identities
# ---------------------------------------------------------------------------


def _report_lines(out):
    return (out / "report.txt").read_text(encoding="utf-8").splitlines()


def _check_block(lines, op):
    start = lines.index(f"[check] op={op}")
    end = next(
        (i for i in range(start + 1, len(lines)) if not lines[i].startswith("  ")),
        len(lines),
    )
    return lines[start + 1 : end]


def test_constant_pair_is_the_lattice_for_both_boundary_commands(tmp_path):
    pair = "a: {default: 0.3}, b: {default: 0.4}, window: {radius: 3}"
    out = tmp_path / "cocycle"
    cfg = write(tmp_path, "c.yaml", f"command: check-cocycle\ncocycle: {{{pair}}}\n")
    assert main(["check-cocycle", "--config", cfg, "--out", str(out)]) == 0
    assert _check_block(_report_lines(out), "cocycles.classify_2d") == [
        "  identity: one sequence constant one wherever the other moves",
        "  verdict: PASS",
        "  classification: lattice",
    ]
    out = tmp_path / "groups"
    cfg = write(
        tmp_path,
        "g.yaml",
        f"command: simulate-groups\ngroups: {{{pair}, grid_n: 16, times: [0.25, 0.5], "
        "sub_radius: 1, n_random: 1, leakage_tol: 1.0}\n",
    )
    assert main(["simulate-groups", "--config", cfg, "--out", str(out)]) == 0
    block = _check_block(_report_lines(out), "groups.commutator_norm")
    assert "  cocycle_holds: true" in block and "  groups_commute: true" in block


def test_classification_that_disagrees_with_the_identities_fails_with_a_note(
    tmp_path,
):
    # every product is about 3.9e-13, so the identities hold; a moves and
    # neither sequence is one, so the sequences say non-commuting
    cfg = write(
        tmp_path,
        "cfg.yaml",
        'command: check-cocycle\ncocycle: {a: {default: 1.0e-7, table: {"0": 2.0e-7}}, '
        "b: {default: 1.0e-7}, window: {radius: 2}}\n",
    )
    out = tmp_path / "out"
    assert main(["check-cocycle", "--config", cfg, "--out", str(out)]) == 1
    lines = _report_lines(out)
    assert "  verdict: PASS" in _check_block(lines, "cocycles.check_cocycle_2d")
    assert _check_block(lines, "cocycles.classify_2d")[1:] == [
        "  verdict: FAIL",
        "  classification: non-commuting",
        "  note: the sequences read non-commuting, the identities hold",
    ]


# ---------------------------------------------------------------------------
# atomic outputs: files appear only when a run completes
# ---------------------------------------------------------------------------

# the class-ii sample without its leakage_tol: the truncation check raises
# TruncationLeakageError after the sweep has written commutator_sweep.csv
LATE_FAILURE = (CONFIGS / "simulate_groups_class_ii.yaml").read_text(
    encoding="utf-8"
).replace("  leakage_tol: 1.0\n", "")


def _tree(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_late_failure_leaves_no_output_directory(tmp_path, capsys):
    assert "leakage_tol:" not in LATE_FAILURE
    cfg = write(tmp_path, "cfg.yaml", LATE_FAILURE)
    out = tmp_path / "nested" / "out"
    assert main(["simulate-groups", "--config", cfg, "--out", str(out)]) == 2
    assert "leakage" in capsys.readouterr().err
    assert not out.exists()
    assert list(out.parent.iterdir()) == []


def test_late_failure_changes_no_file_of_an_existing_output(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.txt").write_text("an earlier report\n", encoding="utf-8")
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = _tree(out)
    cfg = write(tmp_path, "cfg.yaml", LATE_FAILURE)
    assert main(["simulate-groups", "--config", cfg, "--out", str(out)]) == 2
    assert _tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "out"]


def test_internal_error_after_a_partial_write_leaves_no_output(
    tmp_path, capsys, monkeypatch
):
    def broken(cfg, report, outdir):
        (outdir / "partial.txt").write_text("half\n", encoding="utf-8")
        raise KeyError("missing")

    monkeypatch.setitem(cli._DISPATCH, "root-scan", broken)
    cfg = write(tmp_path, "cfg.yaml", MINIMAL)
    out = tmp_path / "out"
    assert main(["root-scan", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("name, status", [
    ("simulate_groups_class_ii", 0), ("check_cocycle_failing", 1),
])
def test_completed_runs_fill_new_empty_and_existing_outputs_alike(
    tmp_path, name, status
):
    command = load_config(CONFIGS / f"{name}.yaml").command
    fresh, empty, existing = (tmp_path / d for d in ("fresh", "empty", "existing"))
    empty.mkdir()
    existing.mkdir()
    (existing / "report.txt").write_text("an earlier report\n", encoding="utf-8")
    (existing / "notes.txt").write_text("kept\n", encoding="utf-8")
    for out in (fresh, empty, existing):
        argv = [command, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]
        assert main(argv) == status
    assert _tree(empty) == _tree(fresh)
    assert _tree(existing) == {**_tree(fresh), "notes.txt": b"kept\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "existing", "fresh"]
