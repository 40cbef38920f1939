//! Verified retrieval: fetch a generation, validate every frame, classify
//! what went wrong, retry what is retryable.
//!
//! This is the trust boundary of the pipeline: nothing read from a
//! [`CheckpointBackend`] is handed to a restore path before its frame
//! checksums, stream checksum and trailer bookkeeping all verify.  Failures
//! are *classified* ([`RestoreFault`]) so the caller can degrade gracefully —
//! retry a transient, walk back a generation on corruption — instead of
//! restoring silently wrong state.
//!
//! Retries use a deterministic bounded exponential backoff expressed in
//! *simulated* seconds: no thread ever sleeps; the accumulated backoff cost
//! is reported so the simulator can charge it as waste.

use ft_platform::checksum::ChecksumGen;

use crate::backend::{CheckpointBackend, StoreFault};
use crate::frame::{decode_stream, FrameFault, FrameHeader};

/// Why a generation could not be verifiably restored.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreFault {
    /// A frame of the stored stream failed checksum verification.
    CorruptFrame {
        /// Generation whose stream is corrupt.
        generation: u64,
        /// Index of the offending frame.
        frame_index: usize,
    },
    /// The stored stream ends before its trailer — the write never
    /// completed.
    TornWrite {
        /// Generation whose stream is torn.
        generation: u64,
    },
    /// The generation is not present in the backend at all.
    MissingGeneration {
        /// The absent generation.
        generation: u64,
    },
    /// The backend kept failing transiently for the whole retry budget.
    Transient {
        /// Generation the reads targeted.
        generation: u64,
        /// How many attempts were made.
        attempts: u32,
    },
    /// No stored generation could be verified — the restore chain is
    /// exhausted.
    NoVerifiableGeneration {
        /// Each rejected generation with the fault that disqualified it.
        rejected: Vec<(u64, RestoreFault)>,
    },
}

impl std::fmt::Display for RestoreFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreFault::CorruptFrame {
                generation,
                frame_index,
            } => write!(f, "generation {generation}: frame {frame_index} is corrupt"),
            RestoreFault::TornWrite { generation } => {
                write!(f, "generation {generation}: torn write (stream incomplete)")
            }
            RestoreFault::MissingGeneration { generation } => {
                write!(f, "generation {generation} is missing from the backend")
            }
            RestoreFault::Transient {
                generation,
                attempts,
            } => write!(
                f,
                "generation {generation}: still failing transiently after {attempts} attempts"
            ),
            RestoreFault::NoVerifiableGeneration { rejected } => write!(
                f,
                "no verifiable generation ({} rejected)",
                rejected.len()
            ),
        }
    }
}

impl std::error::Error for RestoreFault {}

/// Bounded retry policy for transient backend faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of read attempts (including the first).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base_backoff · 2^(k−1)` simulated
    /// seconds.
    pub base_backoff: f64,
}

impl RetryPolicy {
    /// Three attempts, one simulated second of base backoff.
    pub fn default_policy() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: 1.0,
        }
    }

    /// A single attempt: transients are immediately fatal.
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: 0.0,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// A generation that passed full frame verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedStream {
    /// The stream's verified header.
    pub header: FrameHeader,
    /// The reassembled, checksum-verified body.
    pub body: Vec<u8>,
    /// How many read attempts it took.
    pub attempts: u32,
    /// Accumulated simulated backoff seconds spent on retries.
    pub backoff_cost: f64,
}

/// Fetches `generation` from the backend and verifies every frame,
/// retrying transient faults per `retry`.
///
/// Hard I/O errors are treated like transients (the medium may recover);
/// a missing generation and any frame-verification failure are final.
pub fn fetch_verified<B, C>(
    backend: &mut B,
    generation: u64,
    checksum: &C,
    retry: RetryPolicy,
) -> Result<VerifiedStream, RestoreFault>
where
    B: CheckpointBackend,
    C: ChecksumGen + Clone,
{
    fetch_verified_counting(backend, generation, checksum, retry, &mut 0)
}

/// [`fetch_verified`], also adding the length of the stream it fetched
/// (framing included) to `fetched`, whether or not the stream verifies.
pub(crate) fn fetch_verified_counting<B, C>(
    backend: &mut B,
    generation: u64,
    checksum: &C,
    retry: RetryPolicy,
    fetched: &mut usize,
) -> Result<VerifiedStream, RestoreFault>
where
    B: CheckpointBackend,
    C: ChecksumGen + Clone,
{
    let max_attempts = retry.max_attempts.max(1);
    let mut backoff_cost = 0.0;
    let mut attempts = 0;
    let bytes = loop {
        attempts += 1;
        match backend.get(generation) {
            Ok(bytes) => break bytes,
            Err(StoreFault::Missing { .. }) => {
                return Err(RestoreFault::MissingGeneration { generation });
            }
            Err(StoreFault::Transient { .. } | StoreFault::Io { .. }) => {
                if attempts >= max_attempts {
                    return Err(RestoreFault::Transient {
                        generation,
                        attempts,
                    });
                }
                backoff_cost += retry.base_backoff * f64::from(1u32 << (attempts - 1).min(20));
            }
        }
    };
    *fetched += bytes.len();
    match decode_stream(&bytes, checksum.clone()) {
        Ok((header, body)) => Ok(VerifiedStream {
            header,
            body,
            attempts,
            backoff_cost,
        }),
        Err(FrameFault::TornWrite { .. }) => Err(RestoreFault::TornWrite { generation }),
        Err(FrameFault::CorruptFrame { frame_index }) => Err(RestoreFault::CorruptFrame {
            generation,
            frame_index,
        }),
        // A body that verified but does not decode means the frames lie
        // about their content: treat as corruption of frame 0.
        Err(FrameFault::Decode { .. }) => Err(RestoreFault::CorruptFrame {
            generation,
            frame_index: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        FaultInjectingBackend, FaultPlan, InjectedKind, MemoryBackend,
    };
    use crate::frame::{encode_stream, PayloadKind};
    use ft_platform::checksum::Crc32;

    fn stream(generation: u64) -> Vec<u8> {
        let header = FrameHeader {
            generation,
            payload: PayloadKind::State,
            time: 1.5,
        };
        let body: Vec<u8> = (0..1500u32).map(|i| (i % 241) as u8).collect();
        encode_stream(header, &body, 200, Crc32::new())
    }

    #[test]
    fn clean_stream_verifies_first_try() {
        let mut b = MemoryBackend::new();
        b.put(5, &stream(5)).unwrap();
        let v = fetch_verified(&mut b, 5, &Crc32::new(), RetryPolicy::default_policy()).unwrap();
        assert_eq!(v.header.generation, 5);
        assert_eq!(v.attempts, 1);
        assert_eq!(v.backoff_cost, 0.0);
        assert_eq!(v.body.len(), 1500);
    }

    #[test]
    fn missing_generation_is_final() {
        let mut b = MemoryBackend::new();
        assert_eq!(
            fetch_verified(&mut b, 9, &Crc32::new(), RetryPolicy::default_policy()).unwrap_err(),
            RestoreFault::MissingGeneration { generation: 9 }
        );
    }

    #[test]
    fn corruption_and_tearing_are_classified() {
        let mut b = MemoryBackend::new();
        let clean = stream(0);
        let mut flipped = clean.clone();
        flipped[clean.len() / 2] ^= 0x10;
        b.put(0, &flipped).unwrap();
        assert!(matches!(
            fetch_verified(&mut b, 0, &Crc32::new(), RetryPolicy::no_retry()).unwrap_err(),
            RestoreFault::CorruptFrame { generation: 0, .. }
        ));
        b.put(1, &clean[..clean.len() - 7]).unwrap();
        assert_eq!(
            fetch_verified(&mut b, 1, &Crc32::new(), RetryPolicy::no_retry()).unwrap_err(),
            RestoreFault::TornWrite { generation: 1 }
        );
    }

    #[test]
    fn transients_are_retried_with_exponential_backoff() {
        // Transient persists for 2 retries, then clears: 3 attempts succeed.
        let mut b = FaultInjectingBackend::new(
            MemoryBackend::new(),
            FaultPlan::transient_only(1.0, 2),
            3,
        );
        b.put(0, &stream(0)).unwrap();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: 1.0,
        };
        let v = fetch_verified(&mut b, 0, &Crc32::new(), policy).unwrap();
        assert_eq!(v.attempts, 3);
        // Backoff after attempt 1 is 1 s, after attempt 2 is 2 s.
        assert!((v.backoff_cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exhausted_retries_report_transient() {
        let mut b = FaultInjectingBackend::new(
            MemoryBackend::new(),
            FaultPlan::transient_only(1.0, 100),
            3,
        );
        b.put(0, &stream(0)).unwrap();
        assert_eq!(
            fetch_verified(&mut b, 0, &Crc32::new(), RetryPolicy::default_policy()).unwrap_err(),
            RestoreFault::Transient {
                generation: 0,
                attempts: 3
            }
        );
    }

    #[test]
    fn injected_write_faults_are_always_detected() {
        for kind in [InjectedKind::BitFlip, InjectedKind::Truncate, InjectedKind::TornWrite] {
            let mut b =
                FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::only(kind, 1.0), 17);
            for generation in 0..10u64 {
                b.put(generation, &stream(generation)).unwrap();
                let got =
                    fetch_verified(&mut b, generation, &Crc32::new(), RetryPolicy::no_retry());
                assert!(got.is_err(), "{kind:?} on generation {generation} undetected");
            }
        }
    }
}
