//! Regenerates the paper's Table III (L1 data-cache technology parameters)
//! from the analytical models, as a calibration check and for the
//! `respin-experiments table3` command.

use crate::sram::{l1d_private_geometry, l1d_shared_geometry, SramModel};
use crate::sttram::SttRamModel;
use crate::{ArrayModel, ArrayParams};
use serde::Serialize;

/// One row of Table III.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Array label as printed in the paper.
    pub label: String,
    /// Supply voltage (volts).
    pub vdd: f64,
    /// Model outputs at that voltage.
    pub params: ArrayParams,
    /// The paper's published values for comparison
    /// (area, read latency, write latency, read energy, leakage).
    pub paper: PaperRow,
}

/// Published Table III values.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PaperRow {
    /// Area in mm² (for the full 256 KB of capacity).
    pub area_mm2: f64,
    /// Read latency in ps.
    pub read_latency_ps: f64,
    /// Write latency in ps.
    pub write_latency_ps: f64,
    /// Read energy in pJ.
    pub read_energy_pj: f64,
    /// Leakage in µW (the paper's unit for this column).
    pub leakage_uw: f64,
}

/// Generates all four Table III rows from the models.
pub fn generate() -> Vec<Table3Row> {
    let sram = SramModel::default();
    let stt = SttRamModel::default();

    let p16 = l1d_private_geometry();
    let p256 = l1d_shared_geometry();

    let scale16 = |mut p: ArrayParams| {
        // The paper reports the 16 KB row as "16 KB × 16": one cluster's
        // worth of private L1Ds. Area and leakage are for all 16 banks.
        p.area_mm2 *= 16.0;
        p.leakage_mw *= 16.0;
        p
    };

    vec![
        Table3Row {
            label: "SRAM (16KB x 16)".into(),
            vdd: 0.65,
            params: scale16(sram.params(p16, 0.65)),
            paper: PaperRow {
                area_mm2: 0.9176,
                read_latency_ps: 1337.0,
                write_latency_ps: 1337.0,
                read_energy_pj: 2.578,
                leakage_uw: 573.0,
            },
        },
        Table3Row {
            label: "SRAM (16KB x 16)".into(),
            vdd: 1.0,
            params: scale16(sram.params(p16, 1.0)),
            paper: PaperRow {
                area_mm2: 0.9176,
                read_latency_ps: 211.9,
                write_latency_ps: 211.9,
                read_energy_pj: 6.102,
                leakage_uw: 881.0,
            },
        },
        Table3Row {
            label: "SRAM (256KB)".into(),
            vdd: 1.0,
            params: sram.params(p256, 1.0),
            paper: PaperRow {
                area_mm2: 0.9176,
                read_latency_ps: 533.6,
                write_latency_ps: 533.6,
                read_energy_pj: 42.41,
                leakage_uw: 881.0,
            },
        },
        Table3Row {
            label: "STT-RAM (256KB)".into(),
            vdd: 1.0,
            params: stt.params(p256, 1.0),
            paper: PaperRow {
                area_mm2: 0.2451,
                read_latency_ps: 588.2,
                write_latency_ps: 5208.0,
                read_energy_pj: 29.32,
                leakage_uw: 114.0,
            },
        },
    ]
}

/// Renders the table as aligned text, with model-vs-paper columns.
pub fn render_text() -> String {
    let mut out = String::new();
    out.push_str(
        "Table III: L1 data cache technology parameters (model vs paper)\n\
         array              Vdd   area mm2 (paper)   rd ps (paper)    wr ps (paper)    rd pJ (paper)    leak uW (paper)\n",
    );
    for row in generate() {
        let p = &row.params;
        let q = &row.paper;
        out.push_str(&format!(
            "{:<18} {:<5} {:>8.4} ({:<7.4}) {:>8.1} ({:<7.1}) {:>8.1} ({:<7.1}) {:>7.3} ({:<6.3}) {:>8.1} ({:<6.1})\n",
            row.label,
            row.vdd,
            p.area_mm2,
            q.area_mm2,
            p.read_latency_ps,
            q.read_latency_ps,
            p.write_latency_ps,
            q.write_latency_ps,
            p.read_energy_pj,
            q.read_energy_pj,
            p.leakage_mw * 1000.0,
            q.leakage_uw,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_within_five_percent_of_paper() {
        for row in generate() {
            let p = &row.params;
            let q = &row.paper;
            let checks = [
                ("area", p.area_mm2, q.area_mm2),
                ("rd_lat", p.read_latency_ps, q.read_latency_ps),
                ("wr_lat", p.write_latency_ps, q.write_latency_ps),
                ("rd_energy", p.read_energy_pj, q.read_energy_pj),
                ("leak", p.leakage_mw * 1000.0, q.leakage_uw),
            ];
            for (name, got, want) in checks {
                let err = (got - want).abs() / want;
                assert!(
                    err < 0.05,
                    "{} {name}: model {got} vs paper {want} ({:.1}% off)",
                    row.label,
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render_text();
        assert_eq!(text.matches("SRAM (16KB x 16)").count(), 2);
        assert!(text.contains("STT-RAM (256KB)"));
    }

    #[test]
    fn stt_ram_trades_write_latency_for_leakage_and_area() {
        let rows = generate();
        let sram = &rows[2].params;
        let stt = &rows[3].params;
        assert_eq!(rows[2].label, "SRAM (256KB)");
        assert_eq!(rows[3].label, "STT-RAM (256KB)");
        assert!(stt.write_latency_ps > 5.0 * sram.write_latency_ps);
        assert!(stt.leakage_mw < sram.leakage_mw / 5.0);
        assert!(stt.area_mm2 < sram.area_mm2 / 2.0);
        assert!(stt.read_energy_pj < sram.read_energy_pj);
    }

    #[test]
    fn sram_at_reduced_voltage_is_slower_and_cheaper_per_read() {
        let rows = generate();
        let (low, nominal) = (&rows[0], &rows[1]);
        assert_eq!(low.label, nominal.label);
        assert!(low.vdd < nominal.vdd);
        assert!(low.params.read_latency_ps > nominal.params.read_latency_ps);
        assert!(low.params.read_energy_pj < nominal.params.read_energy_pj);
        assert!(low.params.leakage_mw < nominal.params.leakage_mw);
        // Same array at both voltages: the area does not change.
        assert_eq!(low.params.area_mm2, nominal.params.area_mm2);
    }
}
