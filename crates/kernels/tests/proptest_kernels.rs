//! Property tests: every simulated GPU kernel must agree with the
//! sequential CSR reference on arbitrary matrices, in both precisions,
//! and BCCOO with or without its tuned texture reads of `x`. This is the
//! cross-cutting guarantee the whole evaluation rests on — if a kernel
//! were wrong, every figure comparing it would be meaningless.

use gpu_sim::{presets, Device};
use proptest::prelude::*;
use sparse_formats::{
    BccooConfig, BccooMatrix, BrcMatrix, CooMatrix, CsrMatrix, HybMatrix, TcooMatrix, TripletMatrix,
};
use spmv_kernels::bccoo_kernel::BccooKernel;
use spmv_kernels::brc_kernel::BrcKernel;
use spmv_kernels::coo_kernel::CooKernel;
use spmv_kernels::csr_scalar::CsrScalar;
use spmv_kernels::csr_vector::CsrVector;
use spmv_kernels::hyb_kernel::HybKernel;
use spmv_kernels::tcoo_kernel::TcooKernel;
use spmv_kernels::{DevBccoo, DevBrc, DevCoo, DevCsr, DevHyb, DevTcoo, GpuSpmv};

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..50, 1usize..50).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -4.0f64..4.0);
        proptest::collection::vec(entry, 0..350).prop_map(move |entries| {
            let mut t = TripletMatrix::new(rows, cols);
            for (r, c, v) in entries {
                t.push(r, c, v).unwrap();
            }
            t.to_csr()
        })
    })
}

type Case = (CsrMatrix<f64>, Vec<f64>, bool);

fn arb_case() -> impl Strategy<Value = Case> {
    arb_matrix().prop_flat_map(|m| {
        let cols = m.cols();
        (
            Just(m),
            proptest::collection::vec(-3.0f64..3.0, cols..=cols),
            any::<bool>(),
        )
    })
}

fn check(engine: &dyn GpuSpmv<f64>, dev: &Device, x: &[f64], want: &[f64]) -> Result<(), String> {
    let xd = dev.alloc(x.to_vec());
    let yd = dev.alloc(vec![f64::NAN; want.len()]);
    let report = engine.spmv(dev, &xd, &yd);
    if report.time_s <= 0.0 {
        return Err(format!("{}: non-positive modeled time", engine.name()));
    }
    for (i, (got, w)) in yd.as_slice().iter().zip(want.iter()).enumerate() {
        if (got - w).abs() > 1e-9 * (1.0 + w.abs()) {
            return Err(format!("{}: y[{i}] = {got} vs {w}", engine.name()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_kernels_match_reference((m, x, _tex) in arb_case()) {
        let dev = Device::new(presets::gtx_titan());
        let want = m.spmv(&x);
        let scalar = CsrScalar::new(DevCsr::upload(&dev, &m));
        check(&scalar, &dev, &x, &want).map_err(TestCaseError::fail)?;
        for group in [1usize, 4, 32] {
            let vector = CsrVector::with_group(DevCsr::upload(&dev, &m), group);
            check(&vector, &dev, &x, &want).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn coo_and_hyb_kernels_match_reference((m, x, _tex) in arb_case()) {
        let dev = Device::new(presets::gtx_titan());
        let want = m.spmv(&x);
        let (coo, _) = CooMatrix::from_csr(&m);
        let eng = CooKernel::new(DevCoo::upload(&dev, &coo));
        check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        let eng = HybKernel::new(DevHyb::upload(&dev, &hyb));
        check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn blocked_kernels_match_reference((m, x, tex) in arb_case()) {
        let dev = Device::new(presets::gtx_titan());
        let want = m.spmv(&x);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let eng = BrcKernel::new(DevBrc::upload(&dev, &brc));
        check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
        let (bccoo, _) = BccooMatrix::from_csr(
            &m,
            BccooConfig { texture_x: tex, ..Default::default() },
            usize::MAX,
        )
        .unwrap();
        let eng = BccooKernel::new(DevBccoo::upload(&dev, &bccoo));
        check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
        let (tcoo, _) = TcooMatrix::from_csr(&m, 4, usize::MAX).unwrap();
        let eng = TcooKernel::new(DevTcoo::upload(&dev, &tcoo));
        check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn kernels_agree_across_devices((m, x, _tex) in arb_case()) {
        // the timing model differs per device; the numbers must not
        let want = m.spmv(&x);
        for cfg in [presets::gtx_titan(), presets::gtx_580(), presets::tesla_k10_single()] {
            let dev = Device::new(cfg);
            let eng = CsrVector::new(DevCsr::upload(&dev, &m));
            check(&eng, &dev, &x, &want).map_err(TestCaseError::fail)?;
        }
    }
}
