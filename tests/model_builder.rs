//! `PllModelBuilder` contract: every construction path (bare, delayed,
//! time-varying VCO, and their combination), every validation error,
//! and the model-fingerprint identity used for cross-request caching.

use htmpll::core::{CoreError, PllDesign, PllModel, MAX_AUTO_TRUNCATION};
use htmpll::htm::Truncation;
use htmpll::num::Complex;

fn design() -> PllDesign {
    PllDesign::reference_design(0.1).unwrap()
}

fn isf(design: &PllDesign) -> Vec<Complex> {
    let v0 = design.v0();
    vec![
        Complex::from_re(0.25 * v0),
        Complex::from_re(v0),
        Complex::from_re(0.25 * v0),
    ]
}

#[test]
fn bare_builder_is_time_invariant() {
    let m = PllModel::builder(design()).build().unwrap();
    assert!(m.is_time_invariant());
}

#[test]
fn builder_combines_delay_and_isf() {
    // The legacy constructors could express a delayed loop OR a
    // time-varying VCO, never both; the builder chains them.
    let d = design();
    let tau = 0.02 / d.omega_ref();
    let m = PllModel::builder(d.clone())
        .loop_delay(tau, 3)
        .vco_isf(isf(&d))
        .build()
        .unwrap();
    assert!(!m.is_time_invariant());
    // The delay must actually be folded into λ: extra phase lag at the
    // top of the band compared to the undelayed time-varying model.
    let plain = PllModel::builder(d.clone())
        .vco_isf(isf(&d))
        .build()
        .unwrap();
    let w = 0.4 * d.omega_ref();
    let s = Complex::from_im(w);
    let lag = m.lambda().eval(s).arg() - plain.lambda().eval(s).arg();
    assert!(lag.abs() > 1e-6, "delay left λ unchanged");
}

#[test]
fn builder_rejects_bad_isf() {
    for bad in [0usize, 2, 4] {
        let err = PllModel::builder(design())
            .vco_isf(vec![Complex::ONE; bad])
            .build()
            .unwrap_err();
        match err {
            CoreError::InvalidParameter { name, value } => {
                assert_eq!(name, "vco_isf length");
                assert_eq!(value, bad as f64);
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}

#[test]
fn builder_rejects_bad_delay() {
    for bad in [-1e-9, f64::NAN, f64::INFINITY] {
        let err = PllModel::builder(design())
            .loop_delay(bad, 3)
            .build()
            .unwrap_err();
        match err {
            CoreError::InvalidParameter { name, .. } => assert_eq!(name, "loop delay tau"),
            other => panic!("unexpected error: {other}"),
        }
    }
}

#[test]
fn zero_delay_is_accepted() {
    let m = PllModel::builder(design())
        .loop_delay(0.0, 2)
        .build()
        .unwrap();
    assert!(m.is_time_invariant());
}

#[test]
fn fingerprint_identifies_model_structure() {
    let d = design();
    // Identical build recipes agree — the fingerprint is a pure function
    // of the model's defining coefficients, so two independently built
    // models may share one `SweepCache`.
    let a = PllModel::builder(d.clone()).build().unwrap();
    let b = PllModel::builder(d.clone()).build().unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());

    // Any structural change — crossover ratio, loop delay, or a
    // time-varying VCO — must move the fingerprint, otherwise cached
    // factorizations would leak across distinct models.
    let other = PllModel::builder(PllDesign::reference_design(0.2).unwrap())
        .build()
        .unwrap();
    let delayed = PllModel::builder(d.clone())
        .loop_delay(0.01 / d.omega_ref(), 4)
        .build()
        .unwrap();
    let varying = PllModel::builder(d.clone())
        .vco_isf(isf(&d))
        .build()
        .unwrap();
    let fps = [
        a.fingerprint(),
        other.fingerprint(),
        delayed.fingerprint(),
        varying.fingerprint(),
    ];
    for i in 0..fps.len() {
        for j in (i + 1)..fps.len() {
            assert_ne!(fps[i], fps[j], "models {i} and {j} collide");
        }
    }
}

#[test]
fn auto_truncation_resolves_and_clamps() {
    let m = PllModel::builder(design()).build().unwrap();
    // A loose tolerance resolves to a usable small order…
    let loose = m.resolve_truncation(Truncation::auto(1e-2));
    assert!(loose.order() >= 1);
    assert!(loose.order() <= MAX_AUTO_TRUNCATION);
    // …an absurdly tight one hits the matrix-dimension clamp instead of
    // requesting a 100k-harmonic matrix.
    let tight = m.resolve_truncation(Truncation::auto(1e-300));
    assert_eq!(tight.order(), MAX_AUTO_TRUNCATION);
    // A fixed Truncation passes through untouched.
    let fixed = m.resolve_truncation(Truncation::new(9));
    assert_eq!(fixed.order(), 9);
    // And the spec-typed entry points still accept a bare Truncation.
    let (h, _) = m
        .closed_loop_htm(Complex::from_im(0.5), Truncation::new(3))
        .unwrap();
    assert_eq!(h.as_matrix().rows(), 7);
}
