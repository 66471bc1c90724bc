#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, runs the output-check unit test
(tests/check_test.cc) and checks that:
  * two runs with one seed give identical count metrics, untraced and traced;
  * another seed gives other inputs;
  * every workload prints every metric named in BENCHMARK.json, by unit.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics that are exact counts over each workload's fixed session window.
COUNT_METRICS = {
    "0": ["bits_per_elem", "rounds_per_session", "exact_share"],
    "1": ["multiparty.attempts_per_session",
          "multiparty.restarts_per_session",
          "multiparty.bits_replayed_per_session",
          "hashing.prime_lookups_per_session",
          "hashing.prime_cache_hit_share",
          "sim.messages_per_session",
          "sim.faults_per_session",
          "runtime.events_per_session",
          "runtime.frame_parks_per_session",
          "runtime.completion_ticks_p50",
          "runtime.completion_ticks_p99"],
}


def bench(workload, seed, trace, seconds=0.2):
    """Runs the built binary; returns (environment line, result object)."""
    binary = BUILD / "perfbench"
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class OutputCheck(unittest.TestCase):
    def test_check_rejects_corrupted_answers(self):
        binary = BUILD / "perfbench_check_test"
        if not binary.is_file():
            self.skipTest("GoogleTest not found at configure time")
        subprocess.run([str(binary)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)


class Determinism(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for trace, names in COUNT_METRICS.items():
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, first = bench(workload, 7, trace)
                    _, second = bench(workload, 7, trace)
                    self.assertTrue(first["correct"] and second["correct"])
                    for name in names:
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"],
                                         name)

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                env7, _ = bench(workload, 7, "0")
                env7b, _ = bench(workload, 7, "0")
                env8, _ = bench(workload, 8, "0")
                self.assertEqual(env7["inputs"], env7b["inputs"])
                self.assertNotEqual(env7["inputs"]["fingerprint"],
                                    env8["inputs"]["fingerprint"])


class Contract(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    env, result = bench(workload, 3, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(env["environment"]["threads"], 1)


if __name__ == "__main__":
    BUILD = run.build("all")
    unittest.main()
