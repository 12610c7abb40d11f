//! The parallel execution backend: channel-level fan-out over a scoped
//! worker pool.
//!
//! The paper's system is embarrassingly parallel at the channel level —
//! "the host processor can independently control PIM operations of each
//! memory channel" (Section III-A). Every pseudo channel owns its
//! controller, its device model, and its local clock, and channels only
//! meet at barriers; nothing about one channel's simulation reads another's
//! state. The backend exploits exactly that: it partitions the per-channel
//! batch lists into contiguous chunks, runs each chunk on its own
//! `std::thread` worker, and hands the per-channel results back **in
//! stable channel-index order** for the engine to fold and close with the
//! barrier, so the output is byte-identical to the sequential loop.
//!
//! # Determinism
//!
//! Three properties make parallel == sequential an invariant rather than an
//! aspiration:
//!
//! 1. **Per-channel ownership.** A worker gets `&mut` over a disjoint slice
//!    of controllers ([`slice::chunks_mut`]); each channel's simulation is
//!    a pure function of its own state plus the (shared, read-only) host
//!    config and batch list.
//! 2. **Stable merge order.** Workers return per-channel results in chunk
//!    order; chunks are contiguous, so concatenation reproduces
//!    channel-index order, and the reduction
//!    ([`crate::KernelResult::merged`]) and the closing barrier are the
//!    engine's — the exact same code that closes the sequential loop.
//! 3. **Per-channel event buffers.** An attached [`Recorder`] is swapped
//!    for a private per-channel buffer before the workers start and merged
//!    back ([`Recorder::merge_from`]) in channel-index order at the
//!    barrier. A sequential run emits events in exactly that channel-major
//!    order (channel 0's whole kernel, then channel 1's, ...), so the
//!    merged stream — and every derived export, Chrome trace included —
//!    is identical, and span nesting stays balanced.
//!
//! The worker pool uses `std::thread::scope` (no external dependencies) and
//! is created per [`crate::KernelEngine::run_system`] call: PIM kernels are
//! long relative to thread spawn cost, and a persistent pool would have to
//! smuggle `&mut` controllers across an API boundary for no measured gain.

use crate::config::HostConfig;
use crate::engine::{Batch, BoundedResult, ExecutionMode, KernelEngine};
use crate::system::PimSystem;
use pim_core::PimChannel;
use pim_dram::{Cycle, MemoryController};
use pim_obs::Recorder;

/// How [`crate::KernelEngine::run_system`] distributes channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// One thread steps the channels in index order — the reference
    /// behaviour every other backend must reproduce bit-for-bit.
    #[default]
    Sequential,
    /// A scoped worker pool of `n` threads, each running a contiguous chunk
    /// of channels to completion on its own clock. `Threads(1)` exercises
    /// the full fan-out/merge machinery on a single worker (useful for
    /// tests); `Threads(0)` is normalized to 1.
    Threads(usize),
}

impl ExecutionBackend {
    /// The worker count this backend runs `n_channels` channels with.
    pub fn workers_for(&self, n_channels: usize) -> usize {
        match *self {
            ExecutionBackend::Sequential => 1,
            ExecutionBackend::Threads(n) => n.max(1).min(n_channels.max(1)),
        }
    }
}

/// A channel's original recorders, detached while its worker runs with a
/// private buffer.
struct SwappedRecorders {
    channel: usize,
    /// The per-channel buffer both layers (controller + device) record into.
    buffer: Recorder,
    /// The controller's original recorder and channel id, if one was set.
    ctrl: Option<(Recorder, u16)>,
    /// The device's original recorder and channel id, if one was set and it
    /// is a *different* handle than the controller's (the usual shared
    /// handle is merged once, through `ctrl`).
    device: Option<(Recorder, u16)>,
}

/// Swaps every attached recorder on the first `n` channels for private
/// per-channel buffers; returns the undo list.
fn detach_recorders(sys: &mut PimSystem, n: usize) -> Vec<SwappedRecorders> {
    let mut swapped = Vec::new();
    for i in 0..n {
        let ctrl = sys.channel_mut(i);
        let ctrl_rec = ctrl.recorder().cloned().map(|r| (r, ctrl.channel_id()));
        let dev_rec = {
            let dev = ctrl.sink();
            dev.recorder().cloned().map(|r| (r, dev.channel_id()))
        };
        if ctrl_rec.is_none() && dev_rec.is_none() {
            continue;
        }
        let buffer = Recorder::vec();
        // The buffer inherits the parent's ambient trace context so events
        // recorded on worker threads are stamped exactly as a sequential
        // run would stamp them; `merge_from` then replays them verbatim.
        let parent_trace = ctrl_rec
            .as_ref()
            .map(|(r, _)| r)
            .or(dev_rec.as_ref().map(|(r, _)| r))
            .and_then(|r| r.trace());
        buffer.set_trace(parent_trace);
        if let Some((_, id)) = &ctrl_rec {
            ctrl.set_recorder(buffer.clone(), *id);
        }
        if let Some((_, id)) = &dev_rec {
            ctrl.sink_mut().set_recorder(buffer.clone(), *id);
        }
        // One merge per distinct parent handle: when controller and device
        // share a recorder (the `enable_profiling` wiring), merging the
        // buffer into it twice would duplicate the stream.
        let device = match (&ctrl_rec, &dev_rec) {
            (Some((c, _)), Some((d, _))) if c.same_handle(d) => None,
            _ => dev_rec.clone(),
        };
        swapped.push(SwappedRecorders { channel: i, buffer, ctrl: ctrl_rec, device });
    }
    swapped
}

/// Merges the per-channel buffers into their parents in channel-index order
/// and restores the original recorders.
fn merge_and_restore(sys: &mut PimSystem, swapped: Vec<SwappedRecorders>) {
    // `detach_recorders` pushed in ascending channel order; merging in that
    // same order is what makes the merged stream match a sequential run.
    for s in swapped {
        if let Some((r, id)) = s.ctrl {
            r.merge_from(&s.buffer);
            sys.channel_mut(s.channel).set_recorder(r, id);
        }
        if let Some((r, id)) = s.device {
            r.merge_from(&s.buffer);
            sys.channel_mut(s.channel).sink_mut().set_recorder(r, id);
        }
    }
}

/// Runs `per_channel` batch lists across `workers` scoped threads
/// ([`ExecutionBackend::workers_for`] the list count) under an optional
/// watchdog cycle limit; the caller (`run_system_bounded`) has already
/// validated the list count. Returns the per-channel results in
/// channel-index order, each channel left at its own end clock — the
/// caller folds them and closes the launch with the barrier, exactly as it
/// does for the sequential loop.
pub(crate) fn run_system_threads(
    sys: &mut PimSystem,
    per_channel: &[&[Batch]],
    mode: ExecutionMode,
    workers: usize,
    limit: Option<Cycle>,
) -> Vec<BoundedResult> {
    let n = per_channel.len();
    let host: HostConfig = sys.host.clone();
    let swapped = detach_recorders(sys, n);

    let chunk_len = n.div_ceil(workers).max(1);
    let mut results: Vec<BoundedResult> = Vec::with_capacity(n);
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    {
        let channels: &mut [MemoryController<PimChannel>] = sys.channels_mut();
        std::thread::scope(|scope| {
            let host = &host;
            let mut handles = Vec::with_capacity(workers);
            for (ctrl_chunk, batch_chunk) in
                channels[..n].chunks_mut(chunk_len).zip(per_channel.chunks(chunk_len))
            {
                handles.push(scope.spawn(move || {
                    ctrl_chunk
                        .iter_mut()
                        .zip(batch_chunk)
                        .map(|(ctrl, batches)| {
                            KernelEngine::run_on_channel_bounded(host, ctrl, batches, mode, limit)
                        })
                        .collect::<Vec<BoundedResult>>()
                }));
            }
            // Join in spawn (= channel) order so `results` concatenates to
            // channel-index order. A worker panic (an illegal command is a
            // kernel bug) is re-raised on the caller thread after all
            // workers have stopped, preserving the panic message.
            for handle in handles {
                match handle.join() {
                    Ok(r) => results.extend(r),
                    Err(e) => panic_payload = Some(e),
                }
            }
        });
    }
    merge_and_restore(sys, swapped);
    if let Some(e) = panic_payload {
        std::panic::resume_unwind(e);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_defaults_to_sequential() {
        assert_eq!(ExecutionBackend::default(), ExecutionBackend::Sequential);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ExecutionBackend::Threads(0).workers_for(64), 1);
        assert_eq!(ExecutionBackend::Threads(4).workers_for(64), 4);
        assert_eq!(ExecutionBackend::Threads(16).workers_for(3), 3);
        assert_eq!(ExecutionBackend::Threads(8).workers_for(0), 1);
        assert_eq!(ExecutionBackend::Sequential.workers_for(64), 1);
    }
}
