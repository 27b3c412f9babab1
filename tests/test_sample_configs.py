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
        "report.txt": "6aca9e8351d06a3ceb5a8e9f0702e958c02a1e924d9bd14904c21c26fc157cee",
        "spectrum.txt": "ffd66abccb6a2c9193d81d214a562bcb80e404a428444c4db3bb4505a20f3f30",
    }),
    "check_cocycle_commuting": ("check-cocycle", 0, {
        "report.txt": "4d6c35018689e5560c1dda9dc3f859cacc1d0a1be87f0c1e3a210abacb450c11",
    }),
    "check_cocycle_failing": ("check-cocycle", 1, {
        "report.txt": "36eb2cdc4354dcaaa91e3579510ca9b5f4a010026c1dc7d27a7e40fe4a3784ae",
    }),
    "check_cocycle_translated_lattice": ("check-cocycle", 0, {
        "report.txt": "305f54ffe4177a64934f58e093648555133f8db43931f25f25303e129fef9a5f",
    }),
    "check_tiling_class_b": ("check-tiling", 0, {
        "multiplicity.txt": "ef70f9898f854644a38afcabd4877fb04e4d38d203755aad3d171abd1959a8a9",
        "report.txt": "62bcd879b463a8651f3edc2c585f02ef9315c79dac426d26beee8db0b91f4eb6",
        "tiling.svg": "5c0fdf6c712088c1c32d5b81552ddc84829c6d01407dfb2fd6a8630572f2f054",
    }),
    "diffraction_one_harmonic": ("diffraction", 0, {
        "density.txt": "e237b05a2cda71d7edfbfa53d1cf0d9973c359bafef7709915211eda1c813025",
        "diffraction.svg": "4b079b97361c7b4fddcd1bf0c21fb6f70722368a1670a0fa568189570fbae9d5",
        "report.txt": "789c7d45f333716fbeb684c8dc505bf80682655b0d5db38d9333a93f79ba3268",
    }),
    "diffraction_two_component": ("diffraction", 0, {
        "density.txt": "46c611af973e8ee32dc999c13362c8e2485d9d1575cf17e199dbfd09f5f9ac84",
        "diffraction.svg": "df25b50c35363c1cf86370f85e54687e4c31a109a9428308121ef39ccfd41af8",
        "report.txt": "4216584970a9591bdd4c0200941e2fc77952feb16c7311f399f146480793e5e5",
    }),
    "root_scan_interval_union": ("root-scan", 0, {
        "report.txt": "f7f01a60d14e7049251a5c547aa365db150723469f371c2a68bf8726ccc3a6f0",
    }),
    "simulate_groups_class_i": ("simulate-groups", 0, {
        "commutator_sweep.csv": "53030b32a7ea2c207dfa2339827b9497ee10f2f9163bc39321714b8b0e916959",
        "report.txt": "c1b969a3858a5f937d58c8da820735ffb7db6e770f059871c286f1d7d2a2fe3e",
    }),
    "simulate_groups_class_ii": ("simulate-groups", 0, {
        "commutator_sweep.csv": "f58e79e178fb7441ef6e07d2a04e2c83e50328699688a5346a20278a875f2c8b",
        "report.txt": "a0bd94f73b8e9e2facbbfc7ae60b0fd2a1a5d5294fd6666b1402fbda2f1b6702",
    }),
    "simulate_groups_class_ii_twisted": ("simulate-groups", 0, {
        "commutator_sweep.csv": "33388c62459e1c9982574c09fa19f3569b398ea11f095d5bca5190268f3a9300",
        "report.txt": "93dc63c368f99ab0f1f3d4c09610f8a9feaa49cbe908217a164a386dd7911071",
    }),
    "verify_pair_class_a": ("verify-pair", 0, {
        "gram.txt": "6c0803614ea75c3593510cb3065fc3316952270d495db13b89741da3b8066e5f",
        "report.txt": "11c22d52fb948a6acc47b542fd7435be19dd80e8b6493189e8102c00d5a82706",
    }),
    "verify_pair_class_b_radius8": ("verify-pair", 0, {
        "gram.txt": "7c57599d200189c9ea586e0d0f26c137cf2dfc45062df674572301c97ab3201c",
        "report.txt": "5ebc79449b080bfa9d96324392b5bb609cf2dc4a4cdd9901beff6892e4f9642f",
    }),
    "verify_pair_interval_union": ("verify-pair", 0, {
        "gram.txt": "a02d444bf978b7b1b0f6711b0c3dfcd7f598961cb2890251cd8b208ebcf6ae9a",
        "report.txt": "81f7d85a6fa6c1fb1a46bd61436939129dc913a3290c000a8c3fe39bf4f37dbb",
    }),
    "verify_pair_translated_lattice": ("verify-pair", 0, {
        "gram.txt": "225de4f4bfa6ff779beb0859d27b54437acbdcb9131a54ce1fde25dfb99ebe70",
        "report.txt": "0e95b9843348b5fe17f292818021282732c55005bbfea693f961ea698c20bb80",
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
