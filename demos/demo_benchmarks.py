"""Generate a small benchmark suite and run the learner over it.

Run with: python3 demos/demo_benchmarks.py
"""

import statistics
import tempfile

from ltlflearn import LearnerConfig, TaskSpec, gen_task, learn, render_formula
from ltlflearn.benchgen import gen_formula, read_manifest, write_manifest, write_task


def main() -> None:
    # One spec per family that has a target formula; hamming has none
    # (its negatives are perturbations of the single positive trace).
    specs = [
        TaskSpec("ordered-sequence", n_props=3, params={"n": 3}, seed=s)
        for s in range(3)
    ] + [
        TaskSpec("subword", n_props=3, params={"word": [0, 1, 2]}, seed=7),
        TaskSpec("subset", n_props=4, params={"subset": [0, 1, 2]}, seed=7),
        TaskSpec("random-conjuncts", n_props=4, params={"m": 2}, seed=7),
        TaskSpec("hamming", n_props=3, n_pos=1, n_neg=8, seed=7),
    ]

    for spec in specs:
        target = None
        if spec.family != "hamming":
            target = render_formula(gen_formula(spec), spec.alphabet)
        sample = gen_task(spec)
        result = learn(sample, LearnerConfig(timeout=30.0))
        learned = (render_formula(result.formula, spec.alphabet)
                   if result.formula else None)
        print(f"{spec.family:>17} seed {spec.seed}: target={target}  "
              f"-> {result.status} {learned} ({result.method})")

    # The same loop through files: write_task produces manifest rows,
    # and the CLI's bench subcommand consumes the resulting CSV.
    with tempfile.TemporaryDirectory() as tmp:
        rows = [
            write_task(spec, f"{tmp}/task-{i}.trace")
            for i, spec in enumerate(specs)
        ]
        write_manifest(f"{tmp}/manifest.csv", rows)
        back = read_manifest(f"{tmp}/manifest.csv")
        print(f"\nmanifest round trip: {len(back)} rows, "
              f"columns {list(back[0])}")

    # Learned sizes tend to undercut the targets: the learner returns a
    # smallest separator for the sample, not the generating formula.
    sizes = []
    for spec in specs:
        if spec.family == "hamming":
            continue
        result = learn(gen_task(spec), LearnerConfig(timeout=30.0))
        if result.formula is not None:
            sizes.append((gen_formula(spec).size, result.formula.size))
    print("target size vs learned size:", sizes)
    print("mean learned size:", statistics.mean(s for _, s in sizes))


if __name__ == "__main__":
    main()
