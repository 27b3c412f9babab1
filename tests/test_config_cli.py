import os
import re

import pytest

from spectralbox.cli import main
from spectralbox.config import ConfigError, load_config, parse_config
from spectralbox.model import ClassA2D, IntervalUnion, IntFunction, UnitCube

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
    assert cfg.tolerances.eq_tol == 1e-10
    assert cfg.tolerances.grid_n == 256
    assert cfg.rootscan["samples"] == 4096


def test_beta_table_parses_to_class_a():
    cfg = parse_config(CLASS_A)
    assert cfg.spectrum == ClassA2D(
        alpha=0.25, beta=IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5})
    )
    alpha, beta = cfg.spectrum.levels
    assert alpha() == 0.25
    assert beta(0) == 0.2
    assert beta(1) == 0.5
    assert beta(7) == 0.0
    assert isinstance(cfg.domain, UnitCube)
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
    assert isinstance(cfg.domain, IntervalUnion)
    assert cfg.domain.measure == pytest.approx(3.0)


def test_duplicate_key_is_error_naming_the_key():
    bad = """
command: root-scan
rootscan:
  samples: 64
  samples: 128
  coefficients: [1]
"""
    with pytest.raises(ConfigError, match="duplicate key 'samples'"):
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


def test_parse_error_reports_position():
    with pytest.raises(ConfigError, match="line"):
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


def test_cli_env_tolerance_override(tmp_path):
    cfg = write(tmp_path, "cfg.yaml", MINIMAL)
    out = tmp_path / "out"
    os.environ["SPECTRALBOX_NUM_TOL"] = "1e-5"
    try:
        main(["root-scan", "--config", cfg, "--out", str(out)])
    finally:
        del os.environ["SPECTRALBOX_NUM_TOL"]
    assert "num_tol=1.000000000000e-05" in (out / "report.txt").read_text()


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
# staircase aliases: the same tower under two spellings
# ---------------------------------------------------------------------------

CLASS_A_TILED = CLASS_A + "tiling: {window: 4, resolution: 32}\n"

TOWER_2LEVEL = """
command: verify-pair
seed: 5
domain: {kind: unit-cube, dimension: 2}
spectrum:
  family: tower
  levels:
    - {default: 0.25}
    - {default: 0.0, table: {"0": 0.2, "1": 0.5}}
window: {radius: 2}
tiling: {window: 4, resolution: 32}
"""

TOWER3D = """
command: build-spectrum
spectrum:
  family: tower3d
  beta: {default: 0.0, table: {"1": 0.5, "-1": 0.25}}
  gamma: {default: 0.1, table: {"1,2": 0.25, "-1,0": 0.75}}
window: {radius: 2}
tiling: {window: 2, resolution: 8}
"""

TOWER_3LEVEL = """
command: build-spectrum
spectrum:
  family: tower
  levels:
    - {default: 0.0}
    - {default: 0.0, table: {"1": 0.5, "-1": 0.25}}
    - {default: 0.1, table: {"1,2": 0.25, "-1,0": 0.75}}
window: {radius: 2}
tiling: {window: 2, resolution: 8}
"""


def run_artifacts(tmp_path, name, text, command):
    """Run a config as `command`; return (exit status, artifacts).

    The report's "config:" line names the config path and is left out.
    """
    text = re.sub(r"^command: .*$", f"command: {command}", text, flags=re.M)
    cfg = write(tmp_path, f"{name}.yaml", text)
    out = tmp_path / name
    code = main([command, "--config", cfg, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    report = files.pop("report.txt").decode().splitlines()
    files["report.txt"] = [line for line in report if not line.startswith("config:")]
    return code, files


@pytest.mark.parametrize("command", ["build-spectrum", "verify-pair", "check-tiling"])
def test_class_a_and_two_level_tower_give_identical_artifacts(tmp_path, command):
    code_a, files_a = run_artifacts(tmp_path, "class_a", CLASS_A_TILED, command)
    code_t, files_t = run_artifacts(tmp_path, "tower", TOWER_2LEVEL, command)
    assert code_a == code_t == 0
    expected = {
        "build-spectrum": "spectrum.txt",
        "verify-pair": "gram.txt",
        "check-tiling": "tiling.svg",
    }
    assert expected[command] in files_a
    assert files_a == files_t
    if command == "check-tiling":
        assert b"<text" in files_t["tiling.svg"]


@pytest.mark.parametrize("command", ["build-spectrum", "check-tiling"])
def test_tower3d_and_three_level_tower_give_identical_artifacts(tmp_path, command):
    code_a, files_a = run_artifacts(tmp_path, "tower3d", TOWER3D, command)
    code_t, files_t = run_artifacts(tmp_path, "tower", TOWER_3LEVEL, command)
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

