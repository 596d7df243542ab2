"""Golden bytes of the results layer: fixed result matrices, no
training.  The matrix CSVs, each cell's ``report.json``, ``summary.json``
and ``summary.txt`` must come out byte for byte as pinned here, so a
change of float formatting, entry order or JSON layout fails even where
two runs of the same code would still agree with each other."""

from __future__ import annotations

import hashlib
import json

from contrail.cli import format_summary, summarize
from contrail.metrics import EvalReport, write_matrix_csv

from conftest import result_matrix

# (strategy, rep): the lower-triangle rows of the fde and mr matrices;
# an empty row records nothing (joint is scored only at the end).
CELLS = {
    ("dual", 0): (
        [[0.30000000000000004], [0.3333333333333333, 2.675], [12345.678901234567, 1e-17, 2.0999999999999996]],
        [[33.333333333333336], [50.0, 16.666666666666668], [0.30000000000000004, 66.66666666666667, 28.57142857142857]],
    ),
    ("dual", 1): (
        [[1.4142135623730951], [0.003141592653589793, 9.999999999999998], [1.2100000000000002, 1e-300, 5e-324]],
        [[12.5], [37.5, 0.1111111111111111], [99.99999999999999, 0.0, 41.666666666666664]],
    ),
    ("joint", 1): (
        [[], [], [0.30000000000000004, 0.6363636363636364, 1.23456e-05]],
        [[], [], [0.1, 0.2, 0.3]],  # 0.6000000000000001 summed in order, 0.6 exactly
    ),
    ("joint", 0): (
        [[], [], [1.0000000000000002, 0.23076923076923078, 2.2250738585072014e-308]],
        [[], [], [16.666666666666664, 4.0, 45.45454545454545]],
    ),
}

SHA256 = {
    "dual/0/matrix_fde.csv": "89e412b7847385fb96b17555dc95f551688fda80322e0d0f7e5bdf4ea7cb90cc",
    "dual/0/matrix_mr.csv": "9ca2cdc0afd8851ad6f970c959657a1e0e780792bc37d753954da6587bb9531e",
    "dual/0/report.json": "aedcc0afe1dbe79f8a069c568e0177e6e485f57afabe18f40bff79adb568a250",
    "dual/1/matrix_fde.csv": "0110ee6464fced7a4203a3dcb733f5f24d501f424a0ca1bf5789d35a37a309db",
    "dual/1/matrix_mr.csv": "bb4a8efb776f1da80477ece290d9bce55a7898299a5d7e8f2f9c85351764dc14",
    "dual/1/report.json": "e696680e924f1302b4683d43c684a26b8cd47a48422e35c8c8dd0c87b3eab95d",
    "joint/1/matrix_fde.csv": "c4fcaa65010d71f65eb27a6e4ae6e40c647b27f86479e8331080ec0631344add",
    "joint/1/matrix_mr.csv": "25ae799230f2e84b1058a2d73a9096d06d6af0332c3a0131ffe66651818ccf0e",
    "joint/1/report.json": "4d51621df8293d171f4c13f78f20aea955184928e997d9f9f3c3b329020a7e08",
    "joint/0/matrix_fde.csv": "c97f8e0e7d6e48e8d26827234426e887d37569821bfac8774f542b64213fb4d6",
    "joint/0/matrix_mr.csv": "f4d46c70a0d32a1301680f68e0f56b743c2133561b71043f9088be0908042b26",
    "joint/0/report.json": "5f6ac7237217d79a7b3067434f488f890981c43510a45da7f8d949ae9dbb0236",
    "summary.json": "a31d011b12a56d1aec6105170b982bf6108a8726de7e477332ee4f14afd4590f",
    "summary.txt": "c6eff7b0b3f401db02d78fff18d76a4603591111c7b6eefe82cb17faf87fd97c",
}


def _artifacts(tmp_path) -> dict[str, bytes]:
    out, reports = {}, []
    for (strategy, rep), (fde_rows, mr_rows) in CELLS.items():
        report = EvalReport(strategy, rep, result_matrix(fde_rows), result_matrix(mr_rows))
        reports.append(report)
        for name, matrix in (("fde", report.fde_matrix), ("mr", report.mr_matrix)):
            path = tmp_path / f"{strategy}_{rep}_{name}.csv"
            write_matrix_csv(matrix, path)
            out[f"{strategy}/{rep}/matrix_{name}.csv"] = path.read_bytes()
        out[f"{strategy}/{rep}/report.json"] = report.to_json().encode()
    summary = summarize(reports)
    out["summary.json"] = json.dumps(summary, indent=2, sort_keys=True).encode()
    out["summary.txt"] = format_summary(summary, ["joint", "dual"]).encode()
    return out


def test_results_layer_bytes_are_pinned(tmp_path):
    artifacts = _artifacts(tmp_path)
    assert artifacts["dual/0/matrix_fde.csv"] == (
        b"after_task,tested_task,value\r\n1,1,0.30000000000000004\r\n2,1,0.3333333333333333\r\n"
        b"2,2,2.675\r\n3,1,12345.678901234567\r\n3,2,1e-17\r\n3,3,2.0999999999999996\r\n"
    )
    assert artifacts["joint/0/matrix_fde.csv"] == (
        b"after_task,tested_task,value\r\n3,1,1.0000000000000002\r\n3,2,0.23076923076923078\r\n"
        b"3,3,2.2250738585072014e-308\r\n"
    )
    assert artifacts["summary.txt"].decode() == (
        "strategy  FDE-AVG (m)           FDE-BWT (m)           MR-AVG (%)        MR-BWT (%)\n"
        "joint     0.361 +- 0.069        N/A                   11.120 +- 15.443  N/A\n"
        "dual      2058.165 +- 2910.114  3083.125 +- 4367.413  39.534 +- 10.873  26.089 +- 24.898\n"
    )
    assert {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()} == SHA256
