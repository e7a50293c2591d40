//! The digital twin: the Hockney cost model replaying real traffic.
//!
//! The refactor that made execution real did not retire the cost
//! model — it changed its job. Instead of *standing in* for
//! communication, the model now runs **beside** it: every executed
//! collective books its closed-form message/byte totals and rank-0
//! wall time into a [`TrafficStats`](crate::comm::TrafficStats) ledger, and the twin replays that
//! ledger through [`crate::collectives`] to predict what each
//! collective *should* have cost on a given machine; it is the one place
//! the model meets measurement. The `repro_profile` binary emits the comparison (predicted
//! vs measured, relative error per collective) as the profile's `twin`
//! block.
//!
//! Two machines matter:
//!
//! * [`TwinModel::bluegene_q`] — the paper's BG/Q constants. Useful for
//!   *structure* (which collective dominates, how cost grows with `p`)
//!   but wildly wrong in magnitude on loopback TCP, as expected.
//! * [`TwinModel::calibrated`] — latency and bandwidth measured on the
//!   host by the ping-pong rank program
//!   ([`calibrate_from_pingpong`]), so predicted and measured times
//!   live on the same axis and the relative error is meaningful.

use crate::collectives::{allreduce_time, alltoall_time, broadcast_time, p2p_time};
use crate::comm::OpTally;
use crate::machine::MachineSpec;
use mqmd_util::metrics::Json;

/// A cost model bound to one machine description.
#[derive(Debug, Clone)]
pub struct TwinModel {
    pub machine: MachineSpec,
}

/// One predicted-vs-measured row of the twin validation block.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinRow {
    pub op: String,
    pub ranks: usize,
    pub calls: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub predicted_secs: f64,
    pub measured_secs: f64,
    /// `(measured − predicted) / measured`; positive means the real
    /// transport was slower than the model.
    pub rel_err: f64,
}

/// Derives host latency/bandwidth from two ping-pong round trips
/// through the hub (a small message and a large one of `large_bytes`
/// payload). Each one-way leg crosses two sockets (worker → parent →
/// worker), which the calibration folds into the effective per-message
/// latency — the collectives on this transport pay the same double
/// hop, so the folded constant predicts them correctly.
pub fn calibrate_from_pingpong(small_rtt: f64, large_rtt: f64, large_bytes: f64) -> MachineSpec {
    let latency = (small_rtt / 2.0).max(1e-9);
    let transfer = ((large_rtt - small_rtt) / 2.0).max(1e-12);
    let bandwidth = (large_bytes / transfer).max(1e3);
    MachineSpec {
        name: "host loopback (ping-pong calibrated)".into(),
        mpi_latency: latency,
        link_bandwidth: bandwidth,
        ..MachineSpec::bluegene_q(1)
    }
}

impl TwinModel {
    /// The paper machine: one BG/Q rack's constants.
    pub fn bluegene_q() -> Self {
        TwinModel {
            machine: MachineSpec::bluegene_q(1),
        }
    }

    /// A host-calibrated twin (see [`calibrate_from_pingpong`]).
    pub fn calibrated(machine: MachineSpec) -> Self {
        TwinModel { machine }
    }

    /// Predicted wall time for one call of `op` moving `per_msg_bytes`
    /// per message across `p` ranks. Ops map onto the model that
    /// prices their schedule; unknown ops fall back to sequential
    /// point-to-point messages.
    fn predict_call(&self, op: &str, per_msg_bytes: f64, msgs_per_call: f64, p: usize) -> f64 {
        let m = &self.machine;
        match op {
            "allreduce_sum" => allreduce_time(m, per_msg_bytes, p),
            "broadcast" => broadcast_time(m, per_msg_bytes, p),
            // Gather legs + tree broadcast share the allreduce
            // structure: 2·(p−1) messages through ⌈log₂ p⌉ rounds.
            "allgather_concat" => allreduce_time(m, per_msg_bytes, p),
            // Left and right legs overlap across the ring: two
            // message times end to end.
            "halo_exchange" => 2.0 * p2p_time(m, per_msg_bytes, 1),
            "alltoall" => alltoall_time(m, per_msg_bytes, p),
            _ => msgs_per_call * p2p_time(m, per_msg_bytes, 1),
        }
    }

    /// Replays a recorded ledger, producing one row per op.
    pub fn validate(&self, traffic: &[(String, OpTally)], p: usize) -> Vec<TwinRow> {
        traffic
            .iter()
            .map(|(op, t)| {
                let per_msg = if t.msgs > 0 {
                    t.bytes as f64 / t.msgs as f64
                } else {
                    0.0
                };
                let msgs_per_call = if t.calls > 0 {
                    t.msgs as f64 / t.calls as f64
                } else {
                    0.0
                };
                let predicted = t.calls as f64 * self.predict_call(op, per_msg, msgs_per_call, p);
                let rel_err = if t.seconds > 0.0 {
                    (t.seconds - predicted) / t.seconds
                } else {
                    0.0
                };
                TwinRow {
                    op: op.clone(),
                    ranks: p,
                    calls: t.calls,
                    msgs: t.msgs,
                    bytes: t.bytes,
                    predicted_secs: predicted,
                    measured_secs: t.seconds,
                    rel_err,
                }
            })
            .collect()
    }
}

/// Renders twin rows as the profile's `twin` block.
pub fn twin_block(machine_name: &str, rows: &[TwinRow]) -> Json {
    Json::obj([
        ("machine", Json::Str(machine_name.to_string())),
        (
            "collectives",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("op", Json::Str(r.op.clone())),
                            ("ranks", Json::Num(r.ranks as f64)),
                            ("calls", Json::Num(r.calls as f64)),
                            ("msgs", Json::Num(r.msgs as f64)),
                            ("bytes", Json::Num(r.bytes as f64)),
                            ("predicted_secs", Json::Num(r.predicted_secs)),
                            ("measured_secs", Json::Num(r.measured_secs)),
                            ("rel_err", Json::Num(r.rel_err)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_recovers_planted_constants() {
        // Plant latency 50 µs per leg, bandwidth 1 GB/s, 1 MiB payload.
        let lat = 50e-6;
        let bw = 1e9;
        let bytes = (1 << 20) as f64;
        let small_rtt = 2.0 * lat;
        let large_rtt = 2.0 * (lat + bytes / bw);
        let m = calibrate_from_pingpong(small_rtt, large_rtt, bytes);
        assert!((m.mpi_latency - lat).abs() / lat < 1e-9);
        assert!((m.link_bandwidth - bw).abs() / bw < 1e-9);
    }

    #[test]
    fn calibration_survives_degenerate_timings() {
        // Clock jitter can make the large RTT come back *smaller*; the
        // calibration must clamp, not divide by zero or go negative.
        let m = calibrate_from_pingpong(1e-4, 0.5e-4, 1e6);
        assert!(m.mpi_latency > 0.0);
        assert!(m.link_bandwidth > 0.0);
    }

    #[test]
    fn validation_rows_replay_the_ledger() {
        let twin = TwinModel::bluegene_q();
        let traffic = vec![
            (
                "allreduce_sum".to_string(),
                OpTally {
                    calls: 3,
                    msgs: 18,
                    bytes: 18 * 1024,
                    seconds: 3e-3,
                },
            ),
            (
                "alltoall".to_string(),
                OpTally {
                    calls: 1,
                    msgs: 12,
                    bytes: 12 * 256,
                    seconds: 1e-3,
                },
            ),
        ];
        let rows = twin.validate(&traffic, 4);
        assert_eq!(rows.len(), 2);
        let ar = &rows[0];
        assert_eq!(ar.op, "allreduce_sum");
        let expect = 3.0 * allreduce_time(&twin.machine, 1024.0, 4);
        assert!((ar.predicted_secs - expect).abs() < 1e-15);
        assert!((ar.rel_err - (3e-3 - expect) / 3e-3).abs() < 1e-12);
        // The block renders with one entry per op.
        let block = twin_block("bgq", &rows);
        assert_eq!(block.get("collectives").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn unknown_ops_fall_back_to_p2p() {
        let twin = TwinModel::bluegene_q();
        let t = twin.predict_call("mystery", 4096.0, 6.0, 4);
        let expect = 6.0 * p2p_time(&twin.machine, 4096.0, 1);
        assert!((t - expect).abs() < 1e-15);
    }
}
