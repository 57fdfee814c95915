"""Adjacent-transposition sampling against the exact answers.

The lazy Markov chain swaps a random adjacent incomparable pair half
the time.  On posets small enough for exact answers we can watch the
estimator close in and check mixing through an exact total-variation
diagnostic.
"""

from linext import (
    comparability_profile,
    estimate_pair_probability,
    random_poset,
    sorting_probability,
    tv_distance_diagnostic,
)

p = random_poset(7, 0.3, seed=5)
# any incomparable pair will do; take the busiest element's first partner
profile = comparability_profile(p)
x = max(p.labels, key=lambda lab: profile.counts[lab])
y = p.incomparables(x)[0]
exact = sorting_probability(p, x, y)
print(f"exact P({x} before {y}) = {exact} = {float(exact):.6f}")

for samples in (1_000, 10_000, 100_000):
    est = estimate_pair_probability(p, x, y, samples, seed=99)
    err = abs(est.estimate - float(exact))
    print(
        f"  {samples:>7} samples: {est.estimate:.6f} +- {est.stderr:.6f} "
        f"(true error {err:.6f}, burn-in {est.burn_in})"
    )

# Total variation between the empirical position law and the exact one
# shrinks roughly like 1/sqrt(samples) once the chain has mixed.
print("TV diagnostic for", p.labels[2])
for samples in (2_000, 20_000, 200_000):
    tv = tv_distance_diagnostic(p, p.labels[2], samples, seed=7)
    print(f"  {samples:>7} samples: TV = {tv:.5f}")
