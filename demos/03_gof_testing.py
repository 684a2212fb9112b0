"""Goodness-of-fit testing against q-Gaussian nulls.

The statistic Q is the Tsallis entropy of the null member with the
plug-in covariance minus the nearest-neighbor entropy estimate. That
member is not the entropy maximizer at that covariance, so Q can be
negative; it concentrates near zero under the null and is pushed up by
alternatives like the uniform cube. Critical values come from Monte Carlo
simulation under the null.
"""

from tsgof import QGaussianParams, RngStream, qgauss_sample, run_test

N, M = 1000, 400

print("=== data actually drawn from the null (q=1.2 q-Gaussian, m=2) ===")
data = qgauss_sample(QGaussianParams(m=2, q=1.2), N, RngStream(40, 0))
result = run_test(
    data, k=1, q=1.2, family="t1", alpha=0.05, simulate=M, rng=RngStream(41, 0)
)
print(f"Q = {result.statistic:+.4f}, critical value = {result.critical_value:.4f}, "
      f"reject = {result.reject}")

print()
print("=== uniform-cube data tested against the same null ===")
data = RngStream(42, 0).generator.random((N, 2))
result = run_test(
    data, k=1, q=1.2, family="t1", alpha=0.05, simulate=M, rng=RngStream(43, 0)
)
print(f"Q = {result.statistic:+.4f}, critical value = {result.critical_value:.4f}, "
      f"reject = {result.reject}")

print()
print("=== compact-support null (t2, q=0.7) on matching data ===")
data = qgauss_sample(QGaussianParams(m=2, q=0.7), N, RngStream(44, 0))
result = run_test(
    data, k=1, q=0.7, family="t2", alpha=0.05, simulate=M, rng=RngStream(45, 0)
)
print(f"Q = {result.statistic:+.4f}, critical value = {result.critical_value:.4f}, "
      f"reject = {result.reject}")

print()
print("=== infeasible null model combinations are rejected up front ===")
try:
    run_test(data, k=1, q=1.7, family="t1", alpha=0.05, simulate=M, rng=RngStream(46, 0))
except Exception as exc:
    print(f"q=1.7 at m=2: {exc}")
