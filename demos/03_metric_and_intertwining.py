"""The metric operator, its two constructions, and the intertwining defect.

Three measurements:

1. The metric built from its coefficient functions agrees with its dual
   construction, the composition D~^ (D~ v) applied to probes, and is
   Hermitian, at the stencil order.

2. For consistently built systems (companion function from the generating
   function) the intertwining eta H' = H'^ eta holds exactly: the measured
   defect falls at 4th order toward the rounding floor.  This also covers
   the Hermitian limit of a constant generating function.

3. Detuning the companion function makes the defect genuinely nonzero; it
   then acts as a probe-independent multiplication operator whose symbol is
   i times the sampled zeroth-order balance.  Comparing the printed and the
   single-term-corrected variants of that balance shows that only the
   corrected one describes the measured defect once f f' != 0.
"""

from pdmph import GeneratingSpec, MassProfile, SystemBuilder, run_suite

levels = [501, 1001, 2001]
builder = SystemBuilder(MassProfile.constant(), -2.0, 10.0,
                        spec=GeneratingSpec("morse", alpha=1.0))

(rh, rd), _, _ = run_suite(builder, ["eta-hermiticity"], levels)
print("metric checks (probe actions, relative to the metric action scale):")
print(f"  hermiticity     residuals {['%.1e' % v for v in rh.residuals]}"
      f"  order {rh.observed_order:.2f}")
print(f"  dual construction residuals {['%.1e' % v for v in rd.residuals]}"
      f"  order {rd.observed_order:.2f}")

(ri,), _, _ = run_suite(builder, ["intertwining"], levels)
print("\nintertwining defect, consistent companion function:")
print(f"  residuals {['%.2e' % v for v in ri.residuals]} -> regime: "
      f"{ri.notes['defect_regime']}")
print("  (the defect vanishes identically: the companion function solves the"
      " zeroth-order balance)")

(rdet,), _, _ = run_suite(builder, ["intertwining"], levels, detune=0.7)
c = complex(*rdet.notes["c_printed"][-1])
print("\ndetuned constant companion f = 0.7:")
print(f"  defect is h-independent (decay ratio "
      f"{rdet.notes['residual_decay_ratio']:.2f}) -> genuine multiplication operator")
print(f"  probe-to-probe symbol deviation: "
      f"{rdet.notes['probe_symbol_deviation_rel'][-1]:.1e} of symbol scale")
print(f"  symbol / zeroth-order balance = {c.real:+.2e} {c.imag:+.8f} i "
      f"(stability across grids {rdet.notes['c_printed_stability']:.1e})")

(rvar,), _, _ = run_suite(builder, ["intertwining"], levels,
                           detune=lambda x: 0.4 + 0.05 * x)
cc = complex(*rvar.notes["c_corrected"][-1])
print("\ndetuned non-constant companion f = 0.4 + 0.05 x:")
print(f"  corrected-form fit: c = {cc.real:+.2e} {cc.imag:+.6f} i, "
      f"fit residual {rvar.notes['fit_residual_corrected'][-1]:.1e}")
print(f"  printed-form fit residual: {rvar.notes['fit_residual_printed'][-1]:.1e}"
      "  (the printed first term carries g' where the measured defect has g)")
