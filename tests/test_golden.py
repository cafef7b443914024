"""Golden results: the sha256 of every preset's result file, pinned.

Each synth preset is tracked under both association strategies and all
three gating modes, and the bytes `io.write_results` writes are hashed.
The hashes were recorded from the reference implementation; a change that
alters any emitted row (an id, a box digit, a frame) fails here, so
refactors of the matching pipeline stay byte-identical by test, not by
claim. A deliberate behaviour change must re-record the table and say why.
"""

import hashlib

import pytest

from seltrack.gating import MODES, GateConfig
from seltrack.io import FeatureFileProvider, read_detections, write_results
from seltrack.synth import PRESETS, generate_to_dir, preset
from seltrack.tracker import STRATEGY_CASCADE, STRATEGY_FUSED, MatchConfig, run_sequence

GOLDEN = {
    ("crossing", "cascade", "selective"):
        "3f12c84845e146e5a7e4e86f1c49d95111e4db680615d658300dfd6c09b35275",
    ("crossing", "cascade", "base_gate"):
        "3f12c84845e146e5a7e4e86f1c49d95111e4db680615d658300dfd6c09b35275",
    ("crossing", "cascade", "always_extract"):
        "3f12c84845e146e5a7e4e86f1c49d95111e4db680615d658300dfd6c09b35275",
    ("crossing", "fused", "selective"):
        "0b7fdbb6077d9dc3eec6d47aa5b6439100d66e1ad5ee977e48dc78bb4ebc616b",
    ("crossing", "fused", "base_gate"):
        "0b7fdbb6077d9dc3eec6d47aa5b6439100d66e1ad5ee977e48dc78bb4ebc616b",
    ("crossing", "fused", "always_extract"):
        "0b7fdbb6077d9dc3eec6d47aa5b6439100d66e1ad5ee977e48dc78bb4ebc616b",
    ("enter_exit", "cascade", "selective"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("enter_exit", "cascade", "base_gate"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("enter_exit", "cascade", "always_extract"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("enter_exit", "fused", "selective"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("enter_exit", "fused", "base_gate"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("enter_exit", "fused", "always_extract"):
        "930ff5263525d4fa2a8d5d9902c642ba66b1138e4acdd48e101f2c23741c7e3d",
    ("grid", "cascade", "selective"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("grid", "cascade", "base_gate"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("grid", "cascade", "always_extract"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("grid", "fused", "selective"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("grid", "fused", "base_gate"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("grid", "fused", "always_extract"):
        "c054d2b903bb96cdfdb7a5becd966d8adc5548aef57b507c4bd318ce64e63ded",
    ("parade", "cascade", "selective"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
    ("parade", "cascade", "base_gate"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
    ("parade", "cascade", "always_extract"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
    ("parade", "fused", "selective"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
    ("parade", "fused", "base_gate"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
    ("parade", "fused", "always_extract"):
        "7419a4e951d3e4136c8157d7d4c9c669b7ffa7bb1bd516f037ced642f4737706",
}


def results_sha256(name: str, strategy: str, mode: str, tmp_path) -> str:
    det_path, feat_path, _ = generate_to_dir(preset(name), tmp_path / name)
    output, _ = run_sequence(
        read_detections(det_path),
        FeatureFileProvider(feat_path),
        GateConfig(mode=mode),
        MatchConfig(strategy=strategy),
    )
    out_path = tmp_path / "results.txt"
    write_results(out_path, output)
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_results_match_golden_hash(name, strategy, mode, tmp_path):
    assert results_sha256(name, strategy, mode, tmp_path) == GOLDEN[(name, strategy, mode)]
