use super::{time_us, Shape};
use crate::workloads::Layers;
use metascale_qmd::core::qmd::QmdDriver;
use metascale_qmd::md::io::CheckpointStore;
use metascale_qmd::md::thermostat::Berendsen;
use std::hint::black_box;

/// What the service pays per `checkpoint_every`: capture, durable write
/// (with the store's pruning), and the read a resume would do.
pub fn probe(shape: &Shape, layers: &mut Layers) {
    let Some(solver_state) = &shape.solver_state else {
        return;
    };
    let dir = shape
        .out_dir
        .join(format!("ckpt-probe.{}", std::process::id()));
    let Ok(store) = CheckpointStore::open(&dir, 2) else {
        return;
    };
    let driver: QmdDriver<Berendsen> = QmdDriver::new(10.0, None);
    let mut step = 0u64;
    let mut bytes = 0usize;
    let write_us = time_us(|| {
        step += 1;
        let ckp = driver.checkpoint(step, &shape.system, solver_state.clone());
        bytes = ckp.to_bytes().len();
        store
            .save(&ckp)
            .expect("checkpoint write in the probe directory");
    });
    let read_us = time_us(|| {
        black_box(store.load_latest().expect("checkpoint read"));
    });
    std::fs::remove_dir_all(&dir).ok();
    layers.set("md.ckpt_write_us_p50", write_us);
    layers.set("md.ckpt_read_us_p50", read_us);
    layers.set("md.ckpt_bytes", bytes as f64);
}
