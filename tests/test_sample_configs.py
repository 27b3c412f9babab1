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
        "report.txt": "c20f7e98f2cddb7d5bbc600e7f8ce2ecd487a6b12448038b2d0dd50707bf31a7",
        "spectrum.txt": "ffd66abccb6a2c9193d81d214a562bcb80e404a428444c4db3bb4505a20f3f30",
    }),
    "build_spectrum_translated_lattice": ("build-spectrum", 0, {
        "report.txt": "d8e3848725a8df0d485ce8b37780ebc48a64c439d266b274cfbd3301b5f47c24",
        "spectrum.txt": "3fad47e5f76f4752155acad933d933a490a505578a8b483a73236f05ddff7d51",
    }),
    "check_cocycle_commuting": ("check-cocycle", 0, {
        "report.txt": "30e8ec06d848e04e23f92d4d3d1b5ff417a5d9882494d81f9be8faf2238f61e0",
    }),
    "check_cocycle_failing": ("check-cocycle", 1, {
        "report.txt": "28471f408e11231bc43231910d9d2cb8295d3318416939e301f24598b2647a65",
    }),
    "check_cocycle_translated_lattice": ("check-cocycle", 0, {
        "report.txt": "d743a631c1394697baa7e99337e7595a7acc56c42ee79680b07d26639f12e2f9",
    }),
    "check_tiling_class_b": ("check-tiling", 0, {
        "multiplicity.txt": "ef70f9898f854644a38afcabd4877fb04e4d38d203755aad3d171abd1959a8a9",
        "report.txt": "8d78077ae6bce6f4c2f4dd2541436457be108002ce780cedcfcb2a9302205e9c",
        "tiling.svg": "5c0fdf6c712088c1c32d5b81552ddc84829c6d01407dfb2fd6a8630572f2f054",
    }),
    "check_tiling_translated_lattice": ("check-tiling", 0, {
        "multiplicity.txt": "395cbfd11407e5a512a972af1c5f5693cb3354f6589f066071f6f428cf4f9f3c",
        "report.txt": "d5acee8f8720a3a16035939142d65eaec353adb442c95fb1ba416c1453f00767",
        "tiling.svg": "efaa5010a7909617a72960331ebddeabbb91ddfdd4911bcfbbeaf865f6ec3f31",
    }),
    "diffraction_commensurate": ("diffraction", 0, {
        "density.txt": "14fd98a24bccc5c11c6d47d76f301f4c2f6c24ff08dd211390e355067dccab22",
        "diffraction.svg": "92d64c73a384b94e4c12b466f46cbbc09023d1eeb309031c3c734433fb50d25c",
        "report.txt": "9761def7bafc82ec3b858cbc1f7d776526bb48aa88471c7177d8b717207ea32f",
    }),
    "diffraction_one_harmonic": ("diffraction", 0, {
        "density.txt": "e237b05a2cda71d7edfbfa53d1cf0d9973c359bafef7709915211eda1c813025",
        "diffraction.svg": "4b079b97361c7b4fddcd1bf0c21fb6f70722368a1670a0fa568189570fbae9d5",
        "report.txt": "a761ebce696cc8a5694fa6f2dfdce51709d725b74c0054108a47e28e12482446",
    }),
    "diffraction_three_component": ("diffraction", 0, {
        "density.txt": "d2c53a4328bbd17c3119988317a74aa7c4a8ee9abf2386c61a9d9918861ab7de",
        "diffraction.svg": "b927ea1c3a7ec9518dd4316351729e9eb3866b1cf2f95eb86a781486195b4139",
        "report.txt": "5740441332972db368f5b772a04fe6f17f8130785a44d2f0f42796129e1871a4",
    }),
    "diffraction_two_component": ("diffraction", 0, {
        "density.txt": "46c611af973e8ee32dc999c13362c8e2485d9d1575cf17e199dbfd09f5f9ac84",
        "diffraction.svg": "df25b50c35363c1cf86370f85e54687e4c31a109a9428308121ef39ccfd41af8",
        "report.txt": "d941dab68b2e5dc9fd780b8d2fb4e77a562a488d96b98ce1f4c94cf73740fb17",
    }),
    "root_scan_interval_union": ("root-scan", 0, {
        "report.txt": "75cd90f06398dd763d305d76b9307104858624ece31593b3d98577e095b6b8d5",
    }),
    "simulate_groups_class_i": ("simulate-groups", 0, {
        "commutator_sweep.csv": "53030b32a7ea2c207dfa2339827b9497ee10f2f9163bc39321714b8b0e916959",
        "report.txt": "daa848386acfb8dc9c149913d7fd53de8d14d3be0fa7a89856ec988ff97bdec2",
    }),
    "simulate_groups_class_ii": ("simulate-groups", 0, {
        "commutator_sweep.csv": "f58e79e178fb7441ef6e07d2a04e2c83e50328699688a5346a20278a875f2c8b",
        "report.txt": "067595a7a18d6b11f33a5e72f70eacf605bf723acbabd54182bf6b51988010a7",
    }),
    "simulate_groups_class_ii_twisted": ("simulate-groups", 0, {
        "commutator_sweep.csv": "33388c62459e1c9982574c09fa19f3569b398ea11f095d5bca5190268f3a9300",
        "report.txt": "229e24588d95e71739fdce42c99c7eac6c332a2e32b27a4a8ac1a0687f7040f8",
    }),
    "simulate_groups_long_times": ("simulate-groups", 0, {
        "commutator_sweep.csv": "c556b0df02662f13ba4fad92c6951235349486bcd31f4960705f85473a8004e3",
        "report.txt": "1c9e48acdd26fe366c71d629561b245f273d60e9cd4361a5d428f4e120e72eaf",
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
        "report.txt": "f9ef33576ff527f8d4668f23d3ed5da4f081ea80c0a6e1b5b4e89309efe47428",
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
