//! The paper's reproduction: `figures::render("all")` must regenerate
//! the committed `figures_output.txt` byte for byte, and the figure
//! drivers keep the shapes the paper shows.

use htmpll::figures::*;

type TestResult = Result<(), Box<dyn std::error::Error>>;

#[test]
fn render_all_matches_committed_output() {
    let expected = include_str!("../figures_output.txt");
    let got = render("all").expect("every figure renders");
    if got != expected {
        let line = got
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "the line counts".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("`figures all` differs from figures_output.txt at {line}");
    }
}

#[test]
fn fig5_has_expected_shape() -> TestResult {
    let rows = fig5_open_loop_bode(41)?;
    assert_eq!(rows.len(), 41);
    // Magnitude decreases overall; 0 dB near ω/ω_UG = 1.
    let at_unity = rows
        .iter()
        .min_by(|a, b| {
            (a.w_over_wug - 1.0)
                .abs()
                .partial_cmp(&(b.w_over_wug - 1.0).abs())
                .unwrap()
        })
        .unwrap();
    assert!(at_unity.mag_db.abs() < 0.5, "{}", at_unity.mag_db);
    // −40 dB/dec at the low end (double integrator).
    assert!(rows[0].mag_db > 60.0);
    Ok(())
}

#[test]
fn fig7_rows_cover_limit() -> TestResult {
    let rows = fig7_margin_sweep(0.05, 0.35, 7)?;
    assert!(rows.first().unwrap().pm_eff_deg > 50.0);
    assert!(rows.last().unwrap().beyond_limit);
    // Monotone degradation.
    for pair in rows.windows(2) {
        assert!(pair[1].pm_eff_deg <= pair[0].pm_eff_deg + 1e-9);
    }
    Ok(())
}

#[test]
fn fig2_map_is_rank_one_in_columns() -> TestResult {
    let map = fig2_band_transfers(0.2, 0.3, 2)?;
    assert_eq!(map.bands, vec![-2, -1, 0, 1, 2]);
    // Rank one: all columns identical (m-independence).
    for row in &map.magnitudes {
        for pair in row.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-10 * (1.0 + pair[0]));
        }
    }
    Ok(())
}

#[test]
fn fig6_curves_without_sim_marks() -> TestResult {
    let curves = fig6_closed_loop(&[0.1], 11, 0)?;
    assert_eq!(curves.len(), 1);
    assert_eq!(curves[0].points.len(), 11);
    assert!(curves[0].points.iter().all(|p| p.sim_db.is_none()));
    Ok(())
}
