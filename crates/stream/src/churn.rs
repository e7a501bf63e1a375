//! [`acsr_serve::ChurnSource`] adapter: a maintained [`StreamEngine`]
//! plus a pre-generated edge-stream timetable (e.g.
//! [`graphgen::generate_edge_stream`]). Each due batch is applied in
//! place and its modeled maintenance cost is charged to the serving
//! clock, so `acsr_serve::serve_with_churn` measures query latency under
//! real update contention.

use crate::engine::StreamEngine;
use acsr_serve::ChurnSource;
use gpu_sim::Device;
use graphgen::TimedBatch;
use sparse_formats::Scalar;
use spmv_kernels::GpuSpmv;

/// A streamed ACSR operator with a churn timetable.
pub struct ChurnedStream<T> {
    engine: StreamEngine<T>,
    stream: Vec<TimedBatch<T>>,
    cursor: usize,
}

impl<T: Scalar> ChurnedStream<T> {
    /// Wrap a maintained engine and its (arrival-time-ordered) batch
    /// stream.
    pub fn new(engine: StreamEngine<T>, stream: Vec<TimedBatch<T>>) -> Self {
        debug_assert!(stream.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        ChurnedStream {
            engine,
            stream,
            cursor: 0,
        }
    }

    /// The maintained engine (e.g. for post-run bit-identity checks).
    pub fn engine(&self) -> &StreamEngine<T> {
        &self.engine
    }
}

impl<T: Scalar> ChurnSource<T> for ChurnedStream<T> {
    fn operator(&self) -> &dyn GpuSpmv<T> {
        &self.engine
    }

    fn next_event_s(&self) -> Option<f64> {
        self.stream.get(self.cursor).map(|b| b.at_s)
    }

    fn apply_next(&mut self, dev: &Device) -> f64 {
        let batch = self.stream[self.cursor].batch.clone();
        self.cursor += 1;
        self.engine.apply_batch(dev, &batch).total_seconds
    }
}
