//! Table V — ACSR's bin-specific segments (BS: the non-empty G2 bins,
//! which share one grid, plus the `RowMax` overflow grid) and the
//! row-specific grids (RS) it launches per matrix on the GTX Titan.

use crate::common::{selected_specs, Options, Table};
use acsr::{AcsrConfig, AcsrEngine, BinStats};
use gpu_sim::{presets, Device};
use serde::Serialize;

/// One Table V row.
#[derive(Clone, Debug, Serialize)]
pub struct Table5Row {
    pub abbrev: String,
    pub bin_grids: usize,
    pub row_grids: usize,
    pub max_bin: usize,
    pub overflow_rows: usize,
}

/// Compute Table V.
pub fn run(opts: &Options) -> Vec<Table5Row> {
    let dev = Device::new(presets::gtx_titan());
    selected_specs(opts)
        .into_iter()
        .map(|spec| {
            let m = spec.generate::<f32>(opts.scale, opts.seed);
            let engine = AcsrEngine::from_csr(&dev, &m.csr, AcsrConfig::for_device(dev.config()));
            let BinStats {
                bin_grids,
                row_grids,
                max_bin,
                overflow_rows,
            } = engine.bin_stats();
            Table5Row {
                abbrev: spec.abbrev.into(),
                bin_grids,
                row_grids,
                max_bin,
                overflow_rows,
            }
        })
        .collect()
}

/// Render as text.
pub fn render(rows: &[Table5Row]) -> String {
    let mut t = Table::new(&["Matrix", "BS", "RS", "max bin", "RowMax overflow"]);
    for r in rows {
        t.row(vec![
            r.abbrev.clone(),
            format!("{}", r.bin_grids),
            format!("{}", r.row_grids),
            format!("{}", r.max_bin),
            format!("{}", r.overflow_rows),
        ]);
    }
    format!(
        "Table V: bin-specific segments (BS) and row-specific grids (RS) per SpMV, GTX Titan:\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_matrices_use_dynamic_grids() {
        let opts = Options {
            scale: 256,
            matrices: vec!["HOL".into(), "AMZ".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        let hol = &rows[0];
        let amz = &rows[1];
        // HOL's tail needs row-specific grids; AMZ (max 10 nnz/row) never
        // triggers dynamic parallelism — the paper's exact contrast
        assert!(hol.row_grids > 0, "HOL row grids {}", hol.row_grids);
        assert_eq!(amz.row_grids, 0);
        assert!(amz.bin_grids <= 4, "AMZ bins {}", amz.bin_grids);
        assert!(hol.bin_grids >= 8, "HOL bins {}", hol.bin_grids);
    }

    #[test]
    fn row_grids_respect_pending_limit() {
        let rows = run(&Options {
            scale: 64,
            ..Default::default()
        });
        for r in &rows {
            assert!(r.row_grids <= 2048, "{}: RS {}", r.abbrev, r.row_grids);
        }
    }
}
