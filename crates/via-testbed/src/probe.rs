//! Probe packet format: a tiny framing around real RTP.
//!
//! ```text
//! +--------+--------+-----------------+----------------------+
//! | magic  |  kind  |  session (u16)  |  RTP packet (RFC3550)|
//! +--------+--------+-----------------+----------------------+
//! ```
//!
//! `kind` distinguishes the outbound probe from the callee's echo so the
//! caller can compute round-trip times; the RTP header supplies sequence
//! numbers and media timestamps for loss and jitter accounting.

use via_media::call_sim::TS_PER_FRAME;
use via_media::packet::{RtpPacket, RtpParseError};

/// First byte of every probe packet ('V' for VIA).
pub const PROBE_MAGIC: u8 = 0x56;

/// Probe direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Caller → callee measurement packet.
    Probe,
    /// Callee → caller reflection of a probe.
    Echo,
}

/// A parsed probe packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePacket {
    /// Direction marker.
    pub kind: ProbeKind,
    /// Relay session id.
    pub session: u16,
    /// Embedded RTP packet.
    pub rtp: RtpPacket,
}

/// Probe parse failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// Too short or wrong magic.
    NotAProbe,
    /// Unknown kind byte.
    BadKind(u8),
    /// RTP body failed to parse.
    Rtp(RtpParseError),
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::NotAProbe => write!(f, "not a probe packet"),
            ProbeError::BadKind(k) => write!(f, "unknown probe kind {k}"),
            ProbeError::Rtp(e) => write!(f, "bad RTP body: {e}"),
        }
    }
}

impl std::error::Error for ProbeError {}

impl ProbePacket {
    /// Builds an outbound probe with sequence `seq`.
    pub fn probe(session: u16, seq: u16, ssrc: u32) -> ProbePacket {
        ProbePacket {
            kind: ProbeKind::Probe,
            session,
            rtp: RtpPacket {
                payload_type: 0,
                marker: seq == 0,
                seq,
                timestamp: u32::from(seq).wrapping_mul(TS_PER_FRAME),
                ssrc,
                payload_len: 32,
            },
        }
    }

    /// Turns a received probe into its echo.
    pub fn to_echo(&self) -> ProbePacket {
        ProbePacket {
            kind: ProbeKind::Echo,
            session: self.session,
            rtp: self.rtp,
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 12 + self.rtp.payload_len);
        out.push(PROBE_MAGIC);
        out.push(match self.kind {
            ProbeKind::Probe => 0,
            ProbeKind::Echo => 1,
        });
        out.extend_from_slice(&self.session.to_be_bytes());
        out.extend_from_slice(&self.rtp.encode());
        out
    }

    /// Parses wire bytes.
    pub fn decode(data: &[u8]) -> Result<ProbePacket, ProbeError> {
        if data.len() < 4 || data[0] != PROBE_MAGIC {
            return Err(ProbeError::NotAProbe);
        }
        let kind = match data[1] {
            0 => ProbeKind::Probe,
            1 => ProbeKind::Echo,
            k => return Err(ProbeError::BadKind(k)),
        };
        let session = u16::from_be_bytes([data[2], data[3]]);
        let rtp = RtpPacket::decode(&data[4..]).map_err(ProbeError::Rtp)?;
        Ok(ProbePacket { kind, session, rtp })
    }
}

/// Cheap session extraction without a full parse, for the relay fast path.
pub fn peek_session(data: &[u8]) -> Option<u16> {
    if data.len() < 4 || data[0] != PROBE_MAGIC {
        return None;
    }
    Some(u16::from_be_bytes([data[2], data[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_probe_and_echo() {
        let probe = ProbePacket::probe(7, 42, 99);
        for p in [probe.to_echo(), probe] {
            let back = ProbePacket::decode(&p.encode()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn echo_preserves_rtp_header() {
        let p = ProbePacket::probe(3, 17, 5);
        let e = p.to_echo();
        assert_eq!(e.kind, ProbeKind::Echo);
        assert_eq!(e.rtp, p.rtp);
    }

    #[test]
    fn peek_session_matches_decode() {
        let p = ProbePacket::probe(0xBEEF, 1, 2);
        let wire = p.encode();
        assert_eq!(peek_session(&wire), Some(0xBEEF));
        assert_eq!(peek_session(&[1, 2, 3]), None);
        assert_eq!(peek_session(b"XXXXXXXX"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(ProbePacket::decode(&[]), Err(ProbeError::NotAProbe));
        assert_eq!(
            ProbePacket::decode(&[PROBE_MAGIC, 9, 0, 0, 0]),
            Err(ProbeError::BadKind(9))
        );
        let mut wire = ProbePacket::probe(1, 2, 3).encode();
        wire.truncate(8);
        assert!(matches!(
            ProbePacket::decode(&wire),
            Err(ProbeError::Rtp(_))
        ));
    }

    #[test]
    fn probe_timestamps_follow_frame_clock() {
        let p = ProbePacket::probe(1, 10, 3);
        assert_eq!(p.rtp.timestamp, 1600);
    }
}
