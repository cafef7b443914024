"""Golden results: the sha256 of every preset's result file, pinned.

Each synth preset is tracked under both association strategies and all
three gating modes, and the bytes `io.write_results` writes are hashed.
The hashes were recorded from the reference implementation; a change that
alters any emitted row (an id, a box digit, a frame) fails here, so
refactors of the matching pipeline stay byte-identical by test, not by
claim. A deliberate behaviour change must re-record the table and say why.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from seltrack.gating import MODE_ALWAYS_EXTRACT, MODE_BASE_GATE, MODE_SELECTIVE, MODES, GateConfig
from seltrack.geometry import BBox
from seltrack.io import FeatureFileProvider, read_detections, write_features, write_results
from seltrack.synth import PRESETS, generate_to_dir, preset
from seltrack.tracker import (
    STRATEGY_CASCADE,
    STRATEGY_FUSED,
    Frame,
    MatchConfig,
    run_sequence,
)

from providers import benchmark_workloads, frame

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
    ("receding", "cascade", "selective"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
    ("receding", "cascade", "base_gate"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
    ("receding", "cascade", "always_extract"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
    ("receding", "fused", "selective"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
    ("receding", "fused", "base_gate"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
    ("receding", "fused", "always_extract"):
        "2c256f89ad907d97b9f5980eab0b529346eff7f1104fe90628453b3888491d61",
}


# Every preset emits confidence 0.9, so no hash above reaches the ByteTrack
# stage. Here every third detection of each preset ((frame + index) % 3 == 0)
# drops to confidence 0.3, below conf_high, and ByteTrack is on, which adds
# about half again as many rows as the same run without it.
BYTE_GOLDEN = {
    ("crossing", "cascade", "selective"):
        "1cf3161b6eafd7e4e7e32bc8dbba927e3c66669b2f02247d6f90f4edb8b291d6",
    ("crossing", "cascade", "base_gate"):
        "1cf3161b6eafd7e4e7e32bc8dbba927e3c66669b2f02247d6f90f4edb8b291d6",
    ("crossing", "cascade", "always_extract"):
        "1cf3161b6eafd7e4e7e32bc8dbba927e3c66669b2f02247d6f90f4edb8b291d6",
    ("crossing", "fused", "selective"):
        "d869408d6c693bbd34a379ae7ecefbdd8fc67e57c929ca58bedd4a644d3c6b5c",
    ("crossing", "fused", "base_gate"):
        "d869408d6c693bbd34a379ae7ecefbdd8fc67e57c929ca58bedd4a644d3c6b5c",
    ("crossing", "fused", "always_extract"):
        "d869408d6c693bbd34a379ae7ecefbdd8fc67e57c929ca58bedd4a644d3c6b5c",
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
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("grid", "cascade", "base_gate"):
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("grid", "cascade", "always_extract"):
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("grid", "fused", "selective"):
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("grid", "fused", "base_gate"):
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("grid", "fused", "always_extract"):
        "a2dba6f65fd152e771ae88fc46fa5d907e5e4262df887277e82a938ca6e5842b",
    ("parade", "cascade", "selective"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("parade", "cascade", "base_gate"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("parade", "cascade", "always_extract"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("parade", "fused", "selective"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("parade", "fused", "base_gate"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("parade", "fused", "always_extract"):
        "3d2d1f3610fcccc0aacc8d76efb4b4aedc561c475426fc3a6dbfb21062d49e18",
    ("receding", "cascade", "selective"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
    ("receding", "cascade", "base_gate"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
    ("receding", "cascade", "always_extract"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
    ("receding", "fused", "selective"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
    ("receding", "fused", "base_gate"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
    ("receding", "fused", "always_extract"):
        "20e9506d1329b5442d11994239df21fa746a7ba3c255441b97278a82bf2d842f",
}


# The presets write the same bytes in every gating mode, so this scene
# separates them. Targets A and B stand far apart. From frame SWAP_FRAME on,
# A's box steps right so that its IoU with A's prediction is 3/7, inside
# [1/3, 0.5): A stays its sole candidate and, with the same aspect, clears
# the aspect check (alpha = 1 / (2 - IoU) >= 0.6), while the IoU stage takes
# the pair only when iou_gate <= 3/7. At SWAP_FRAME A's detection also
# carries B's feature, as when two people look alike: an extraction there
# pulls it towards B. Under cascade association, by (iou_gate, mode):
SWAP_GOLDEN = {
    (0.3, MODE_SELECTIVE):
        "d3cd177926d4b0804c37710bc04c9ccd887ef9b9798a696de24aa9c34e1e36c7",
    (0.3, MODE_BASE_GATE):
        "d3cd177926d4b0804c37710bc04c9ccd887ef9b9798a696de24aa9c34e1e36c7",
    (0.3, MODE_ALWAYS_EXTRACT):
        "c10e2ba0126502d4ab7d11d6bd8a9a84863b71f6e111666c8eab3be9259ac25f",
    (0.5, MODE_SELECTIVE):
        "d3cd177926d4b0804c37710bc04c9ccd887ef9b9798a696de24aa9c34e1e36c7",
    (0.5, MODE_BASE_GATE):
        "f291fb2dfb69d041f81603084f25047fab37f89683f942cfacee2271da3f5603",
    (0.5, MODE_ALWAYS_EXTRACT):
        "c10e2ba0126502d4ab7d11d6bd8a9a84863b71f6e111666c8eab3be9259ac25f",
}
SWAP_IDS = {  # distinct track ids written
    (0.3, MODE_SELECTIVE): 2,  # the copied embedding keeps A
    (0.3, MODE_BASE_GATE): 2,  # the IoU stage keeps A
    (0.3, MODE_ALWAYS_EXTRACT): 3,  # B's track takes A's detection; B is born again
    (0.5, MODE_SELECTIVE): 2,
    (0.5, MODE_BASE_GATE): 3,  # no stage takes A's detection; it is born anew
    (0.5, MODE_ALWAYS_EXTRACT): 3,
}
SWAP_FRAMES = 10
SWAP_FRAME = 5


# The benchmark's workloads at seed 1 (`perfbench/workloads.py`), tracked in
# the two modes the benchmark times. Every workload writes the same bytes in
# both modes. The benchmark checks only that its passes agree with each
# other; these pins tie them to the recorded results.
WORKLOAD_SEED = 1
WORKLOAD_GOLDEN = {
    ("parade", MODE_SELECTIVE): "8130a171503882a7c40ccf30146fb45014c0f82880b67a06023704081b7b1386",
    ("parade", MODE_ALWAYS_EXTRACT): "8130a171503882a7c40ccf30146fb45014c0f82880b67a06023704081b7b1386",
    ("grid", MODE_SELECTIVE): "b3be0216db4b1cfbed725870bae5e366333dd49bdf095193b6e5e2280961eb6d",
    ("grid", MODE_ALWAYS_EXTRACT): "b3be0216db4b1cfbed725870bae5e366333dd49bdf095193b6e5e2280961eb6d",
    ("churn", MODE_SELECTIVE): "e008074c3d4c0b943c3bc63e2e5817e8a254fbd6a53a2d06a3463752637071ad",
    ("churn", MODE_ALWAYS_EXTRACT): "e008074c3d4c0b943c3bc63e2e5817e8a254fbd6a53a2d06a3463752637071ad",
}


# The files synth writes: the sha256 of det.txt, features.feab and gt.txt,
# for each preset at its default seed and each benchmark workload at
# WORKLOAD_SEED. The result pins above see a changed input file only when
# it changes the tracker's output; these pin the files themselves, noise
# draws included.
SYNTH_GOLDEN = {
    "crossing": (
        "61a33761a0468340772654125cb010757e524d79554fbdf88f9d691d438e6c77",
        "0b7f8e321e95e58eafac4dacf30ef398ea41f21d3476c98b202423b0834b19eb",
        "cf9b994c3fa46145eab4a37d7325f048489135eeb6f9f14b41cce90893bd8bba",
    ),
    "enter_exit": (
        "3d7af2be6ad90ef89df0c8ac1fa1fbda828adf60022a41ed6586e4be1e2f2af6",
        "ef1653a7f6c8ae0c7d89fbb08c3033a53d9b6cc2580175d2ddfe1332a7a8f438",
        "5f69cd814ecb194ec338ad81ca05ca9a54405523948be99a4ed7f517fe245979",
    ),
    "grid": (
        "318607bbb5cdb0ce8dab71a4d88da7dc1710e1533a60d5f42a76ab03d107cfa1",
        "3a452a1aeec292db9484b84b889787c00aa6041dd545a28ab60c1d5182ce601b",
        "a205d9f072e5a10783f79f7f2d63cf70cf1f7083fed1df2ab0bfcbb5c5f0338d",
    ),
    "parade": (
        "c318b5bbcd14adf898519d69a41a0523fb7b39ea7b34da3dbd73301feb5f096f",
        "ff2e01f09a3260c90f8c574007f2c5230c39bc3223bd9c0ed01e39a819724cd9",
        "62b97870e18818f4054ddc0a9001de9bf3db223f65e6cc63012fdf7f606b8006",
    ),
    "receding": (
        "79c0c4dab8e3bba6258bd6ce5b8de21933aa5229d9f16a3e796c61223dacc28f",
        "90f3e45e16a521912d4f2a40753d0db33ed87f276c7eaad745f90a1b39b77aa7",
        "72d4a8cb211d1a9e012ddd372fd601eaeb6b1010d953748011d98f71f53c360a",
    ),
}
WORKLOAD_FILES_GOLDEN = {
    "parade": (
        "aed9147728bab5b5c623db79d5d1c6d8ce5e329dcf286c931943bb7797c997a9",
        "d342cf8bbf80bcca642a073010817fc355fb64cfd1490092789abf07bb57eed7",
        "3ed7a8cac0549b0e2a3aa2838538e9e31522f049b37645c9ffc717dbafea145d",
    ),
    "grid": (
        "5ddb3f25d5c00c5337ce661d787d622914cfbbd504db53fafafa16e148dc7a5c",
        "dbc3cc49f5a5f3b1232df1e3eec4132653eb4f0a620c9a1efcbb45b37cea92b5",
        "9629cc4a0ae034fe1e2ca624dff123e69a0f0b0498a000cf42e9b3ff54ed3294",
    ),
    "churn": (
        "c7534e7db1dbe82a3b57c7ac8bf0c2d1ba8f73723ca485fa9a7c5f41c4496d08",
        "7244e818da94b33f55392917ec7a1c96e408d21c1880567dabcceea5f1ec49ee",
        "7fabd7133603dbd6ab3628af972ee361285c59995c09de87daa78ab1dec15803",
    ),
}


def sha256_of_results(output, tmp_path) -> str:
    out_path = tmp_path / "results.txt"
    write_results(out_path, output)
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


def results_sha256(name: str, strategy: str, mode: str, tmp_path, byte: bool = False) -> str:
    """The preset's result hash; `byte` lowers every third detection and turns ByteTrack on."""
    det_path, feat_path, _ = generate_to_dir(preset(name), tmp_path / name)
    frames = read_detections(det_path)
    if byte:
        frames = {
            f: Frame(f, dets.xywh, np.where((f + np.arange(len(dets))) % 3 == 0, 0.3, dets.confidence))
            for f, dets in frames.items()
        }
    output, _ = run_sequence(
        frames,
        FeatureFileProvider(feat_path),
        GateConfig(mode=mode),
        MatchConfig(strategy=strategy, byte_low=True if byte else None),
    )
    return sha256_of_results(output, tmp_path)


def run_swap_scene(iou_gate: float, mode: str, tmp_path):
    e_a, e_b = np.eye(2, dtype=np.float32)
    frames, records = {}, []
    for f in range(1, SWAP_FRAMES + 1):
        a = BBox(100.0 + (16.0 if f >= SWAP_FRAME else 0.0), 100.0, 40.0, 80.0)
        b = BBox(600.0, 100.0, 40.0, 80.0)
        frames[f] = frame(f, [a, b])
        records += [(f, 0, e_b if f == SWAP_FRAME else e_a), (f, 1, e_b)]
    feat_path = tmp_path / "swap.feab"
    write_features(feat_path, records)
    output, _ = run_sequence(
        frames,
        FeatureFileProvider(feat_path),
        GateConfig(mode=mode),
        MatchConfig(strategy=STRATEGY_CASCADE, iou_gate=iou_gate),
    )
    return output


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_results_match_golden_hash(name, strategy, mode, tmp_path):
    assert results_sha256(name, strategy, mode, tmp_path) == GOLDEN[(name, strategy, mode)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_byte_stage_matches_golden_hash(name, strategy, mode, tmp_path):
    assert results_sha256(name, strategy, mode, tmp_path, byte=True) == BYTE_GOLDEN[(name, strategy, mode)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("iou_gate", [0.3, 0.5])
def test_swap_scene_matches_golden_hash(iou_gate, mode, tmp_path):
    output = run_swap_scene(iou_gate, mode, tmp_path)
    assert len({tid for _, tid, _ in output.rows}) == SWAP_IDS[(iou_gate, mode)]
    assert sha256_of_results(output, tmp_path) == SWAP_GOLDEN[(iou_gate, mode)]


@pytest.fixture(scope="module")
def workload_dirs(tmp_path_factory):
    workloads = benchmark_workloads()
    root = tmp_path_factory.mktemp("workloads")
    return {name: workloads.generate(name, WORKLOAD_SEED, root / name) for name in workloads.NAMES}


@pytest.mark.parametrize("mode", [MODE_SELECTIVE, MODE_ALWAYS_EXTRACT])
@pytest.mark.parametrize("name", ["parade", "grid", "churn"])
def test_benchmark_workload_matches_golden_hash(name, mode, workload_dirs, tmp_path):
    workload = workload_dirs[name]
    output, _ = run_sequence(
        read_detections(workload.det), FeatureFileProvider(workload.features), GateConfig(mode=mode), workload.match
    )
    assert sha256_of_results(output, tmp_path) == WORKLOAD_GOLDEN[(name, mode)]


def sha256_of_files(paths) -> tuple[str, ...]:
    return tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_synth_files_match_golden_hash(name, tmp_path):
    assert sha256_of_files(generate_to_dir(preset(name), tmp_path)) == SYNTH_GOLDEN[name]


@pytest.mark.parametrize("name", ["parade", "grid", "churn"])
def test_benchmark_workload_files_match_golden_hash(name, workload_dirs):
    workload = workload_dirs[name]
    assert sha256_of_files((workload.det, workload.features, workload.gt)) == WORKLOAD_FILES_GOLDEN[name]


def test_swap_scene_separates_the_modes():
    at = SWAP_GOLDEN
    assert at[(0.3, MODE_SELECTIVE)] == at[(0.3, MODE_BASE_GATE)] != at[(0.3, MODE_ALWAYS_EXTRACT)]
    assert len({at[(0.5, mode)] for mode in MODES}) == 3
