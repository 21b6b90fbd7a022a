"""Public surface: the exported names, the values the model accepts and the exact bytes of the CLI's files."""

import dataclasses
import hashlib
import inspect
import json

import pivotgrasp
from pivotgrasp.cli import main

REGION = ["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7",
          "--alpha-step", "5", "--beta-step", "5"]
CALLS = [
    REGION + ["--out-dir", "{out}"],
    REGION + ["--mode", "form-closure", "--out-dir", "{out}"],
    ["simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg",
     "--la-schedule", "0.9:0.65", "--beta-step", "3", "--la-step", "0.1", "--out-dir", "{out}"],
    ["beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9", "--alpha", "18deg",
     "--out", "{out}/beta_ub.json"],
    ["traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", "--mu", "0,0,0.4",
     "--clamp-beta-ub", "--out", "{out}/plan.json", "--align-out", "{out}/align.json"],
    ["wrench", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.9", "--alpha", "18deg",
     "--beta", "30deg", "--out", "{out}/wrench.csv"],
]

# sha256 of every file CALLS write, recorded before the region and
# grasp-plane maps, the two LP wrappers and the number formatters were each
# merged into one code path; a refactor that changes any byte fails here.
DIGESTS = {
    "align.json": "7e1d8bcc64e5ac1e274967b46f24ca1dc9720cabf67c20f6d5236bb670b0ff80",
    "beta_ub.json": "17e14fce13476455274b43bf33cbe7e4199d34952ccae6dcb72361bfc1a9bb8a",
    "grasp_plane_bushing.csv": "798b50f21a4df48ded8a58e606a50a7b98a8fe49de5dc3f39ce59a043a7c6a4e",
    "grasp_plane_bushing.json": "c7da13b8371e59cc81c272cece65e2ceb5f95e3c3cae675641dea460541bdffe",
    "plan.json": "1d1b0dee3948820dc272eb13a52410f23f7118e9353f785d61e7a2822a2090d2",
    "region_bushing_force_balance_la0.7.csv": "f2604efc7ec9667f663d7b3971b56c6a08f8e3c57edd45123ee00c08397ec220",
    "region_bushing_force_balance_la0.7.json": "393332eaa9f02a51c9e6fb3b2cb36e4dba9b393c189a8f22ae5e55484c973e8c",
    "region_bushing_form_closure_la0.7.csv": "7f07912ea21054e631563101d8f03328650ec47ae9ef48f085b98048b82c3a85",
    "region_bushing_form_closure_la0.7.json": "23d56d161f0605f3c99b137344407ba1bb1615ba5e425d4bd8304a74783fb692",
    "trajectory_bushing.csv": "f61aab43477e54fe22ff678692272686be264509d11ed5db6c000f708f14950c",
    "wrench.csv": "abc4f5730e6be345ac148d399ebbd00133727c15a4478800ae46aaed78bfe8d6",
}


def test_cli_files_keep_their_bytes(tmp_path, capsys):
    for argv in CALLS:
        assert main([a.format(out=tmp_path) for a in argv]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == DIGESTS


def test_exports_resolve_without_duplicates():
    names = pivotgrasp.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(pivotgrasp, n)] == []


# Every value a caller can set on the model's inputs. The model reads each of
# them; a field or keyword added here needs a reader.
FIELDS = {
    pivotgrasp.GraspConfig: ["l_a", "alpha", "beta", "delta"],
    pivotgrasp.GripperSpec: ["w"],
    pivotgrasp.GraspTrajectory: ["samples"],
}
PARAMETERS = {
    pivotgrasp.solve_force_balance: ["basis", "ext"],
    pivotgrasp.solve_form_closure: ["basis"],
    pivotgrasp.oracle_force_balance: ["basis", "ext"],
    pivotgrasp.linear_la_schedule: ["la_start", "la_end"],
    pivotgrasp.align_phase: ["obj", "cfg", "n_waypoints"],
}


def test_inputs_hold_only_what_the_model_reads():
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in FIELDS} == FIELDS
    assert {f: list(inspect.signature(f).parameters) for f in PARAMETERS} == PARAMETERS


def test_catalog_ignores_a_gripper_stroke(tmp_path):
    docs = [{"name": "ring", "a_mm": 30, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(docs))
    docs[0]["gripper"]["stroke_mm"] = 80
    with_stroke = tmp_path / "stroke.json"
    with_stroke.write_text(json.dumps(docs))
    assert pivotgrasp.load_catalog(with_stroke) == pivotgrasp.load_catalog(plain)
    assert pivotgrasp.load_catalog(plain)["ring"][1] == pivotgrasp.GripperSpec(w=10.0)
