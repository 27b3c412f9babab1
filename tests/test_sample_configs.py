"""Byte gate: every sample config keeps its exit status and artifact bytes.

Each `configs/*.yaml` runs through `cli.main` in process from the repo
root, with the relative config path, so the report's "config:" line is
stable.  The digests pin the sha256 of every artifact; a refactor that
changes one byte of any of them fails here.
"""

import hashlib
from pathlib import Path

import pytest

from spectralbox.cli import main

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "build_spectrum_tower3d": ("build-spectrum", 0, {
        "report.txt": "ef492ef9ac0354e0f22b7c39b5222e74adce3808cef4b99ee30ad0ee82f5f6c4",
        "spectrum.txt": "ffd66abccb6a2c9193d81d214a562bcb80e404a428444c4db3bb4505a20f3f30",
    }),
    "check_cocycle_commuting": ("check-cocycle", 0, {
        "report.txt": "b65904975180aed77bce109690c3c3b394f3affbd0e6fa4e333cde829fe4b3ee",
    }),
    "check_cocycle_failing": ("check-cocycle", 1, {
        "report.txt": "16b8705a620e33cb94645878993d4652bdf265dac76126ae706f591ef80f9ba5",
    }),
    "check_cocycle_translated_lattice": ("check-cocycle", 0, {
        "report.txt": "06d1c0d70c268c75171f4299d71bfc9c0f9c6b949779828b28cbae3d33c517e1",
    }),
    "check_tiling_class_b": ("check-tiling", 0, {
        "multiplicity.txt": "ef70f9898f854644a38afcabd4877fb04e4d38d203755aad3d171abd1959a8a9",
        "report.txt": "370c0cd2252b1291b1b81ba0e80de6c829f3c03627cbd5e905c4fbadef59e9bb",
        "tiling.svg": "5c0fdf6c712088c1c32d5b81552ddc84829c6d01407dfb2fd6a8630572f2f054",
    }),
    "diffraction_one_harmonic": ("diffraction", 0, {
        "density.txt": "e237b05a2cda71d7edfbfa53d1cf0d9973c359bafef7709915211eda1c813025",
        "diffraction.svg": "4b079b97361c7b4fddcd1bf0c21fb6f70722368a1670a0fa568189570fbae9d5",
        "report.txt": "dca81c42bb21d07894775cfcf326ddf59d6a81a8cb73664fb70abcc483e15abe",
    }),
    "diffraction_two_component": ("diffraction", 0, {
        "density.txt": "46c611af973e8ee32dc999c13362c8e2485d9d1575cf17e199dbfd09f5f9ac84",
        "diffraction.svg": "df25b50c35363c1cf86370f85e54687e4c31a109a9428308121ef39ccfd41af8",
        "report.txt": "99045c8bbd633a87e3707ed5696509a7ff74c1a2ff4e8549b04ac162400089be",
    }),
    "root_scan_interval_union": ("root-scan", 0, {
        "report.txt": "3445f47e96bf6775750ba34be005b7248d38ff246d3eedbad700d41aa054e64c",
    }),
    "simulate_groups_class_i": ("simulate-groups", 0, {
        "commutator_sweep.csv": "53030b32a7ea2c207dfa2339827b9497ee10f2f9163bc39321714b8b0e916959",
        "report.txt": "8f3877f7a0cbcadbc7cabefd570fe4136eefaec687eddc70afbb034bcbbb75e2",
    }),
    "simulate_groups_class_ii": ("simulate-groups", 0, {
        "commutator_sweep.csv": "f58e79e178fb7441ef6e07d2a04e2c83e50328699688a5346a20278a875f2c8b",
        "report.txt": "56f22bbf3d115bed06615f09f3a76eefbc2aed4cef03f36c0ebca62fd3ca6364",
    }),
    "simulate_groups_class_ii_twisted": ("simulate-groups", 0, {
        "commutator_sweep.csv": "33388c62459e1c9982574c09fa19f3569b398ea11f095d5bca5190268f3a9300",
        "report.txt": "f7617770843d4ee47cbddf515209253265b71dfe3e87be5e3075b42b3ad4ca14",
    }),
    "verify_pair_class_a": ("verify-pair", 0, {
        "gram.txt": "6c0803614ea75c3593510cb3065fc3316952270d495db13b89741da3b8066e5f",
        "report.txt": "aff7d65ee87ce25d2441c512c0ac4bf413233afa4c476a51e1d22b982d2b2a47",
    }),
    "verify_pair_class_b_radius8": ("verify-pair", 0, {
        "gram.txt": "7c57599d200189c9ea586e0d0f26c137cf2dfc45062df674572301c97ab3201c",
        "report.txt": "700737966a6cdc6e7dfe1e3a4ca07cdd8c74a9b20b87b3ecd2fe22b5b20f4e6b",
    }),
    "verify_pair_interval_union": ("verify-pair", 0, {
        "gram.txt": "a02d444bf978b7b1b0f6711b0c3dfcd7f598961cb2890251cd8b208ebcf6ae9a",
        "report.txt": "8140ccc4a8d787f5d0a01a81ff091adf757488b1d3a1babf86083add083b6662",
    }),
    "verify_pair_translated_lattice": ("verify-pair", 0, {
        "gram.txt": "225de4f4bfa6ff779beb0859d27b54437acbdcb9131a54ce1fde25dfb99ebe70",
        "report.txt": "b089b1eca6a59500c7706ef5b05a8c2d4864455c74a3bd56e23851341e52d1c1",
    }),
}


def test_every_sample_config_is_pinned():
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.yaml")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_sample_config_artifacts_are_byte_identical(tmp_path, monkeypatch, name):
    command, status, digests = EXPECTED[name]
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert main([command, "--config", f"configs/{name}.yaml", "--out", str(out)]) == status
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert got == digests
