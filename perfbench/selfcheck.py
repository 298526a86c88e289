"""Self-check of the benchmark's oracle and generators.

    python3 perfbench/selfcheck.py

Run from the root of a mechx checkout.  It checks that

* the oracle's checks accept mechx's output for every bundled platform in
  every compute mode, every figure, the dataset listing, and a sample of
  compare pairs (mechx runs in-process here; this is the one place the
  benchmark compares against mechx instead of its own reference);
* the fixed-point counting path agrees with exact products, including
  counts next to powers of ten;
* the reference tape interpreter agrees with mechx on random machines,
  with the listing read whole and through the hashing sink;
* each generator is byte-identical for one seed and differs across seeds.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

import gen
import oracle
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.set_int_max_str_digits(0)
    problems = []
    bundled = oracle.read_bundled(ROOT)
    spans.load_mechx(os.path.join(ROOT, "src"))
    from mechx import aemachine, cli

    def agree(what: str, argv: list, check, workdir: str) -> None:
        code, out, err = spans.call_main(cli.main, argv)
        bad = check(code, out, err, workdir)
        if bad:
            problems.append(f"{what}: {bad}")

    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for stem, doc in bundled.items():
                for flags, mode, as_json, mech in (
                    ((), "both", False, False),
                    (("--json",), "both", True, False),
                    (("--mechanical-only",), "both", False, True),
                    (("--log-space",), "log_space", False, False),
                    (("--exact", "--json"), "exact", True, False),
                ):
                    agree(f"compute @{stem} {' '.join(flags)}", ["compute", f"@{stem}", *flags],
                          oracle.expect_compute(doc, mode, as_json, mech), tmp)
            rng = random.Random(0)
            for _ in range(40):
                a, b = rng.sample(sorted(bundled), 2)
                agree(f"compare @{a} @{b}", ["compare", f"@{a}", f"@{b}"],
                      oracle.expect_compare(bundled[a], bundled[b]), tmp)
            agree("dataset-list", ["dataset-list"], oracle.expect_dataset_list(bundled), tmp)
            for fig in range(1, 6):
                agree(f"plot --figure {fig}",
                      ["plot", "--figure", str(fig), "--out-csv", "f.csv", "--out-svg", "f.svg"],
                      oracle.expect_plot(bundled, fig, "f.csv", "f.svg"), tmp)
        finally:
            os.chdir(cwd)

    rng = random.Random(1)
    for _ in range(300):
        factors = [(rng.choice([2, 3, 10, 100, rng.randint(2, 3600)]), rng.randint(1, 3000))
                   for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            factors = [(10, rng.randint(7000, 20000))]  # an exact power of ten
        fast = oracle.count(factors)
        exact = oracle._exact_count(fast.factors, oracle._product(fast.factors))
        if (fast.digits, fast.lead3, fast.k_round) != (exact.digits, exact.lead3, exact.k_round):
            problems.append(f"count{factors}: fixed-point {fast} != exact {exact}")

    for i in range(200):
        text = gen.random_machine(rng)
        budget = rng.choice([1, 10, 1000, 20000])
        mf = aemachine.parse_machine(text)
        result = aemachine.run(mf.machine, mf.tape, max_steps=budget, trace=True)
        check = oracle.expect_aem(text, budget, True, False)

        def emit(argv, listing=aemachine.format_run(result)):
            sys.stdout.write(listing)

        for head in (None, oracle.AEM_HEADER_LINES):  # kept whole, and hashed as it streams
            bad = check(*spans.call_main(emit, [], head), "")
            if bad:
                problems.append(f"random machine {i} (head_lines={head}): {bad}")

    names = sorted(bundled)
    for workload in gen.WORKLOADS:
        a, b, c = (gen.make_pool(workload, s, names) for s in (7, 7, 8))
        if (a.files, a.blocks, a.once) != (b.files, b.blocks, b.once):
            problems.append(f"{workload}: one seed gave two different pools")
        if a.files == c.files:
            problems.append(f"{workload}: two seeds gave the same files")

    for p in problems:
        print(p)
    print(f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
