//! Memory requests as seen by the memory controller.

use crate::command::DataBlock;
use crate::timing::Cycle;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A 32-byte read.
    Read,
    /// A 32-byte write.
    Write,
}

/// A 32-byte memory request addressed by physical address.
///
/// Requests must be 32-byte aligned: one request maps to exactly one DRAM
/// column command, the access granularity shared by the host and the PIM
/// execution units (Section III-A: "each PIM execution unit accesses the
/// memory at the same data access granularity as the host processor").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Read or write.
    pub kind: RequestKind,
    /// Physical byte address (32-byte aligned).
    pub addr: u64,
    /// Write payload (writes only).
    pub data: Option<DataBlock>,
    /// Arrival sequence number (program order).
    pub(crate) seq: u64,
}

impl Request {
    /// Creates a read request.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 32-byte aligned.
    pub fn read(addr: u64) -> Request {
        assert_eq!(addr % 32, 0, "requests must be 32-byte aligned");
        Request { kind: RequestKind::Read, addr, data: None, seq: 0 }
    }

    /// Creates a write request.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 32-byte aligned.
    pub fn write(addr: u64, data: DataBlock) -> Request {
        assert_eq!(addr % 32, 0, "requests must be 32-byte aligned");
        Request { kind: RequestKind::Write, addr, data: Some(data), seq: 0 }
    }
}

/// A finished request, in completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request's arrival sequence number.
    pub seq: u64,
    /// Physical address.
    pub addr: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Data returned (reads only).
    pub data: Option<DataBlock>,
    /// Cycle the column command issued.
    pub issued_at: Cycle,
    /// Cycle the data crossed the bus.
    pub completed_at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_payload() {
        let r = Request::read(64);
        assert_eq!(r.kind, RequestKind::Read);
        assert!(r.data.is_none());
        let w = Request::write(96, [1; 32]);
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.data, Some([1; 32]));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_request_panics() {
        Request::read(33);
    }
}
