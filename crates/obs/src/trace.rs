//! Deterministic request-scoped trace context.
//!
//! A [`TraceCtx`] is minted once per serving-layer request — derived with
//! splitmix64 over the server seed and the request admission index, never
//! from a wall clock — and travels with the request through EDF dispatch,
//! the resilience ladder, kernel launches, and per-channel execution. Any
//! [`crate::Event`] can carry an optional context so the merged event
//! stream can be joined back to the owning request and tenant, and the
//! Chrome exporter can link admission → dispatch → launch → completion
//! with flow events.
//!
//! Determinism contract: the same seed and request index always yield the
//! same ids, so traced artifacts stay byte-identical from run to run.

/// The splitmix64 finalizer — the same bijective mixer the rest of the
/// workspace uses for deterministic tie-breaking and jitter.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifies one request across every layer and every export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one stage (admission, dispatch, a launch attempt, …) within
/// a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Derives the trace id for the `request_index`-th admitted request of
    /// a server seeded with `seed`. Pure function of its inputs.
    #[must_use]
    pub fn mint(seed: u64, request_index: u64) -> TraceId {
        TraceId(mix(seed ^ mix(request_index ^ 0x7ACE_1D00)))
    }
}

/// The full context stamped onto events: which request, which stage of its
/// lifecycle, and which tenant submitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The owning request's trace id.
    pub trace: TraceId,
    /// The current lifecycle stage's span id.
    pub span: SpanId,
    /// The tenant that submitted the request.
    pub tenant: u32,
}

impl TraceCtx {
    /// Mints the root context for a request: trace id from
    /// [`TraceId::mint`], root span derived from the trace id.
    #[must_use]
    pub fn root(seed: u64, request_index: u64, tenant: u32) -> TraceCtx {
        let trace = TraceId::mint(seed, request_index);
        TraceCtx { trace, span: SpanId(mix(trace.0)), tenant }
    }

    /// Derives a child context for lifecycle stage `stage` (e.g. launch
    /// attempt number). Same trace and tenant, new span id.
    #[must_use]
    pub fn child(&self, stage: u64) -> TraceCtx {
        TraceCtx { span: SpanId(mix(self.trace.0 ^ self.span.0 ^ stage)), ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minting_is_deterministic_and_seed_sensitive() {
        assert_eq!(TraceId::mint(7, 0), TraceId::mint(7, 0));
        assert_ne!(TraceId::mint(7, 0), TraceId::mint(7, 1));
        assert_ne!(TraceId::mint(7, 0), TraceId::mint(8, 0));
    }

    #[test]
    fn root_and_children_share_trace_but_not_spans() {
        let root = TraceCtx::root(0x5E17, 3, 1);
        let a = root.child(1);
        let b = root.child(2);
        assert_eq!(root.trace, a.trace);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.tenant, 1);
        assert_ne!(root.span, a.span);
        assert_ne!(a.span, b.span);
        // Re-deriving the same stage yields the same span id.
        assert_eq!(root.child(1), a);
    }

    #[test]
    fn mix_matches_splitmix64_reference() {
        // splitmix64(0) first output, as published by Vigna.
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }
}
