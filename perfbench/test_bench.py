#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/test_bench.py

For each workload, in both trace modes, the run must pass its oracles and
print exactly the metric names and units BENCHMARK.json declares.  The span
logs of the traced runs must conserve: every child span lies inside its
parent, the rpc attempts of one client call do not overlap (so rc.self plus
the rpc spans is the call), and a handle's store and journal spans never add
up to more than the handle.  A directory holding only BENCHMARK.json and
perfbench/ must make the benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOL_US = 0.01


def run(workload, trace, cwd=ROOT, run_py=os.path.join(HERE, "run.py")):
    done = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return done.returncode, done.stdout, done.stderr


def spans_of(workload):
    with open(os.path.join(HERE, "out", "spans-%s.jsonl" % workload)) as f:
        return [json.loads(line) for line in f]


class Tiny(unittest.TestCase):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def result(self, workload, trace):
        code, out, err = run(workload, trace)
        self.assertEqual(code, 0, out[-3000:] + err[-3000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(result["correct"], out[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return result["metrics"]

    def conserve(self, spans):
        by_id = {s["id"]: s for s in spans}
        self.assertEqual(len(by_id), len(spans), "span ids are unique")
        kids = {}
        for s in spans:
            if s["parent"]:
                self.assertIn(s["parent"], by_id)
                kids.setdefault(s["parent"], []).append(s)
        for pid, cs in kids.items():
            p = by_id[pid]
            for c in cs:
                self.assertGreaterEqual(c["start_us"], p["start_us"] - TOL_US)
                self.assertLessEqual(c["start_us"] + c["dur_us"],
                                     p["start_us"] + p["dur_us"] + TOL_US)
            if p["name"] in ("op", "handle"):
                cs = sorted(cs, key=lambda c: c["start_us"])
                for a, b in zip(cs, cs[1:]):
                    self.assertGreaterEqual(b["start_us"], a["start_us"] + a["dur_us"] - TOL_US)
                self.assertGreaterEqual(p["dur_us"] - sum(c["dur_us"] for c in cs), -TOL_US)
        return kids

    def kernel_path(self, workload):
        self.result(workload, 0)
        layers = self.result(workload, 1)
        spans = spans_of(workload)
        kids = self.conserve(spans)
        return layers, spans, kids

    def test_put(self):
        layers, spans, kids = self.kernel_path("put")
        ops = [s for s in spans if s["name"] == "op"]
        self.assertTrue(ops)
        for op in ops:
            self.assertTrue(any(c["name"] == "rpc" for c in kids.get(op["id"], [])))
        handles = [s for s in spans if s["name"] == "handle"]
        self.assertTrue(all(h["parent"] for h in handles), "every handle links to its rpc")
        self.assertTrue(any(c["name"] == "journal.append"
                            for h in handles for c in kids.get(h["id"], [])))
        self.assertEqual(layers["rc.attempts_per_op"]["value"], 1)
        self.assertGreater(layers["disk.io_per_op"]["value"], 0)
        self.assertGreater(layers["journal.bytes_per_put"]["value"], 0)

    def test_get(self):
        layers, spans, kids = self.kernel_path("get")
        self.assertGreater(layers["store.load_us"]["value"], 0)
        self.assertEqual(layers["journal.append_us"]["value"], 0)

    def test_restart(self):
        layers, spans, kids = self.kernel_path("restart")
        by_id = {s["id"]: s for s in spans}
        recovers = [s for s in spans if s["name"] == "recover" and s["parent"]]
        self.assertTrue(recovers)
        self.assertTrue(all(by_id[r["parent"]]["name"] == "restart" for r in recovers))
        self.assertGreater(layers["recover.records"]["value"], 0)
        self.assertGreater(layers["disk.io_per_restart"]["value"], 0)

    def test_verify(self):
        self.result("verify", 0)
        layers = self.result("verify", 1)
        self.assertGreater(layers["verify.suite_s.abi"]["value"], 0)

    def test_counts_repeat(self):
        # The counted world is deterministic per seed.
        a = self.result("get", 1)
        b = self.result("get", 1)
        for name in ("disk.io_per_op", "kernel.syscalls_per_op.server",
                     "kernel.syscalls_per_op.client", "acks_per_kilotick"):
            self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_bare_directory_fails(self):
        bare = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            code, out, _ = run("put", 0, cwd=bare,
                               run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertNotIn('"metrics"', out)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
