"""Exit-time inequalities, checked against simulation.

The survival probability of the first exit time from a ball obeys the
constant-free bound P(tau_r >= t) <= 1/(1 + t G(2r)), with G the jump-tail
intensity, and E tau_r <= 1/G(2r).  Both are verified here on the unit-
coefficient index-1 stable process (G(r) = 2/r) with exact path sampling.
"""

from levyup import SimConfig, exit_bounds, verify_bound_table
from levyup import processes as pr

spec = pr.raw_stable_process(1.0)
config = SimConfig(dt=1e-3, n_paths=4000, seed=42)
grid = [(t, r) for t in (0.01, 0.05, 0.1) for r in (0.25, 0.5, 1.0)]

print("closed-form anchor at (t, r) = (0.1, 0.5):")
eb = exit_bounds(spec, 0.0, 0.1, 0.5)
print(f"  jump intensity G(2r)     = {eb.tail_intensity:.4f}")
print(f"  survival bound           = {eb.survival_bound:.4f}")
print(f"  expected-exit bound      = {eb.expected_exit:.4f}")
print(f"  exponential shape        = {eb.exponential_shape:.4f}")

print("\nsurvival probabilities vs the bound:")
print(f"  {'t':>6} {'r':>6} {'empirical':>10} {'bound':>8} {'violated':>9}")
for row in verify_bound_table(spec, 0.0, "exit_survival", grid, config):
    print(f"  {row.t:>6} {row.r:>6} {row.empirical:>10.4f} "
          f"{row.bound:>8.4f} {str(row.violated):>9}")

print("\nmean exit times vs the bound:")
for row in verify_bound_table(spec, 0.0, "expected_exit", grid, config):
    print(f"  r = {row.r:<5} E tau = {row.empirical:.4f}  "
          f"bound = {row.bound:.4f}  violated = {row.violated}")

print("\nlower bound on the exceedance probability (where it applies):")
for row in verify_bound_table(spec, 0.0, "lower_max", grid, config):
    print(f"  t = {row.t:<5} r = {row.r:<5} empirical = {row.empirical:.4f}  "
          f">= {row.bound:.4f}  violated = {row.violated}")
