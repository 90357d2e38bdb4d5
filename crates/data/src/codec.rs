//! Compact binary encoding of video clips.
//!
//! Generated footage is shared between the profiling server and analysis
//! tooling (and checked into experiment archives); JSON blows a 250-frame
//! clip up to several hundred kilobytes. This codec stores features as raw
//! little-endian `f32`, ground truth as a bitset, and metadata packed — a
//! ~6× size reduction — with bounds-checked decoding that never reserves
//! more memory than the input's remaining bytes can fill.

use crate::{
    ClipId, DatasetSource, Frame, FrameMeta, Location, SceneAttributes, TimeOfDay, VideoClip,
    Weather,
};

const MAGIC: &[u8; 4] = b"ANOL";
const VERSION: u16 = 1;
/// Bytes of a clip header: id, five tags, frame count, feature dim, cells.
const CLIP_HEADER: usize = 8 + 5 + 4 + 2 + 2;

/// Error returned when decoding malformed clip bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeClipError {
    detail: String,
}

impl DecodeClipError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for DecodeClipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid clip encoding: {}", self.detail)
    }
}

impl std::error::Error for DecodeClipError {}

/// Encodes clips into the compact binary format.
///
/// # Examples
///
/// ```
/// use anole_data::{decode_clips, encode_clips, DatasetConfig, DrivingDataset};
/// use anole_tensor::Seed;
///
/// let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
/// let bytes = encode_clips(&dataset.clips()[..2]);
/// let clips = decode_clips(&bytes)?;
/// assert_eq!(clips.as_slice(), &dataset.clips()[..2]);
/// # Ok::<(), anole_data::DecodeClipError>(())
/// ```
pub fn encode_clips(clips: &[VideoClip]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(clips.len() as u32).to_le_bytes());
    for clip in clips {
        let feature_dim = clip.frames.first().map(|f| f.features.len()).unwrap_or(0);
        let cells = clip.frames.first().map(|f| f.truth.len()).unwrap_or(0);
        buf.extend_from_slice(&(clip.id.0 as u64).to_le_bytes());
        buf.extend_from_slice(&[
            match clip.source {
                DatasetSource::Kitti => 0,
                DatasetSource::Bdd100k => 1,
                DatasetSource::Shd => 2,
            },
            clip.attributes.weather.index() as u8,
            clip.attributes.location.index() as u8,
            clip.attributes.time.index() as u8,
            u8::from(clip.seen),
        ]);
        buf.extend_from_slice(&(clip.frames.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(feature_dim as u16).to_le_bytes());
        buf.extend_from_slice(&(cells as u16).to_le_bytes());
        for frame in &clip.frames {
            for &v in &frame.features {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            // Truth bitset, LSB-first within each byte.
            for chunk in frame.truth.chunks(8) {
                let byte = chunk
                    .iter()
                    .enumerate()
                    .fold(0u8, |byte, (i, &t)| byte | (u8::from(t) << i));
                buf.push(byte);
            }
            buf.extend_from_slice(&frame.meta.brightness.to_le_bytes());
            buf.extend_from_slice(&frame.meta.contrast.to_le_bytes());
            buf.extend_from_slice(&(frame.meta.object_count as u16).to_le_bytes());
            buf.extend_from_slice(&frame.meta.object_area.to_le_bytes());
        }
    }
    buf
}

/// A cursor over the bytes not yet decoded. Reads are checked in groups by
/// [`Reader::need`] and then taken without further checks.
struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    /// Fails unless at least `n` bytes remain.
    fn need(&self, n: usize, what: &str) -> Result<(), DecodeClipError> {
        if self.rest.len() < n {
            Err(DecodeClipError::new(format!("truncated while reading {what}")))
        } else {
            Ok(())
        }
    }

    /// The next `N` bytes, which [`Reader::need`] checked are there.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, tail) = self.rest.split_first_chunk().expect("`need` checked the length");
        self.rest = tail;
        *head
    }
}

/// `v` if it is finite: generated footage never holds NaN or infinity.
fn finite(v: f32, what: &str) -> Result<f32, DecodeClipError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(DecodeClipError::new(format!("non-finite {what}")))
    }
}

/// Decodes clips from the compact binary format.
///
/// Only what [`encode_clips`] writes decodes: re-encoding the clips gives
/// back the input bytes.
///
/// # Errors
///
/// Returns [`DecodeClipError`] on a bad magic/version, truncated input,
/// out-of-range enum tags, a `seen` flag other than 0 or 1, an empty clip
/// with non-zero dimensions, set padding bits after the last truth cell, or
/// a non-finite feature or metadata value.
pub fn decode_clips(bytes: &[u8]) -> Result<Vec<VideoClip>, DecodeClipError> {
    let mut r = Reader { rest: bytes };
    r.need(6, "header")?;
    if &r.take::<4>() != MAGIC {
        return Err(DecodeClipError::new("bad magic"));
    }
    let version = u16::from_le_bytes(r.take());
    if version != VERSION {
        return Err(DecodeClipError::new(format!("unsupported version {version}")));
    }
    r.need(4, "clip count")?;
    let clip_count = u32::from_le_bytes(r.take()) as usize;

    // Counts come from the input: reserve only what the remaining bytes can
    // actually hold.
    let mut clips = Vec::with_capacity(clip_count.min(r.rest.len() / CLIP_HEADER));
    for _ in 0..clip_count {
        r.need(CLIP_HEADER, "clip header")?;
        let id = ClipId(u64::from_le_bytes(r.take()) as usize);
        let [source, weather, location, time, seen] = r.take();
        let source = match source {
            0 => DatasetSource::Kitti,
            1 => DatasetSource::Bdd100k,
            2 => DatasetSource::Shd,
            other => return Err(DecodeClipError::new(format!("bad source tag {other}"))),
        };
        let weather = *Weather::ALL
            .get(weather as usize)
            .ok_or_else(|| DecodeClipError::new("bad weather tag"))?;
        let location = *Location::ALL
            .get(location as usize)
            .ok_or_else(|| DecodeClipError::new("bad location tag"))?;
        let time = *TimeOfDay::ALL
            .get(time as usize)
            .ok_or_else(|| DecodeClipError::new("bad time tag"))?;
        let seen = match seen {
            0 => false,
            1 => true,
            other => return Err(DecodeClipError::new(format!("bad seen flag {other}"))),
        };
        let frame_count = u32::from_le_bytes(r.take()) as usize;
        let feature_dim = u16::from_le_bytes(r.take()) as usize;
        let cells = u16::from_le_bytes(r.take()) as usize;
        if frame_count == 0 && (feature_dim, cells) != (0, 0) {
            return Err(DecodeClipError::new("an empty clip with non-zero dimensions"));
        }
        let frame_size = feature_dim * 4 + cells.div_ceil(8) + 4 + 4 + 2 + 4;

        let mut frames = Vec::with_capacity(frame_count.min(r.rest.len() / frame_size));
        for _ in 0..frame_count {
            r.need(frame_size, "frame")?;
            let features = (0..feature_dim)
                .map(|_| finite(f32::from_le_bytes(r.take()), "feature"))
                .collect::<Result<_, _>>()?;
            let mut truth = Vec::with_capacity(cells);
            let mut byte = 0u8;
            for i in 0..cells {
                if i % 8 == 0 {
                    [byte] = r.take();
                }
                truth.push(byte & (1 << (i % 8)) != 0);
            }
            let used_bits = cells % 8;
            if used_bits != 0 && byte >> used_bits != 0 {
                return Err(DecodeClipError::new("set padding bits after the last truth cell"));
            }
            let meta = FrameMeta {
                brightness: finite(f32::from_le_bytes(r.take()), "brightness")?,
                contrast: finite(f32::from_le_bytes(r.take()), "contrast")?,
                object_count: u16::from_le_bytes(r.take()) as usize,
                object_area: finite(f32::from_le_bytes(r.take()), "object area")?,
            };
            frames.push(Frame {
                features,
                truth,
                meta,
            });
        }
        clips.push(VideoClip {
            id,
            source,
            attributes: SceneAttributes::new(weather, location, time),
            frames,
            seen,
        });
    }
    if !r.rest.is_empty() {
        return Err(DecodeClipError::new(format!("{} trailing bytes", r.rest.len())));
    }
    Ok(clips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetConfig, DrivingDataset};
    use anole_tensor::Seed;

    fn clips() -> Vec<VideoClip> {
        DrivingDataset::generate(&DatasetConfig::small(), Seed(171))
            .clips()
            .to_vec()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let clips = clips();
        let bytes = encode_clips(&clips);
        let decoded = decode_clips(&bytes).unwrap();
        assert_eq!(decoded, clips);
    }

    #[test]
    fn empty_input_round_trips() {
        let bytes = encode_clips(&[]);
        assert_eq!(decode_clips(&bytes).unwrap(), Vec::<VideoClip>::new());
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        // The yardstick is the clips' `Debug` text: every field, floats in
        // their shortest round-trip digits, as a text format would hold them.
        let clips = clips();
        let binary = encode_clips(&clips).len();
        let text = format!("{clips:?}").len();
        assert!(
            binary * 3 < text,
            "binary {binary} bytes vs text {text} bytes"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let clips = clips();
        let mut bytes = encode_clips(&clips);
        bytes[0] = b'X';
        let err = decode_clips(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let clips = clips();
        let bytes = encode_clips(&clips[..1]);
        // Any strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_clips(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let clips = clips();
        let mut bytes = encode_clips(&clips[..1]);
        bytes.push(0xFF);
        assert!(decode_clips(&bytes).unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn every_bit_flip_fails_cleanly_or_round_trips() {
        let clips = clips();
        let bytes = encode_clips(&clips[..2]);
        let mut flipped = bytes.clone();
        let mut rejected = 0usize;
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_clips(&flipped) {
                Ok(decoded) => {
                    assert!(encode_clips(&decoded) == flipped, "bit {bit} re-encodes differently")
                }
                Err(_) => rejected += 1,
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(rejected > 0);
    }

    #[test]
    fn non_canonical_fields_are_rejected() {
        let clips = clips();
        let bytes = encode_clips(&clips[..1]);
        let frame_start = 10 + CLIP_HEADER;
        // The seen flag is the last of the five tags after the clip id.
        let mut bad = bytes.clone();
        bad[10 + 8 + 4] = 2;
        assert!(decode_clips(&bad).unwrap_err().to_string().contains("seen"));
        // A NaN first feature.
        let mut bad = bytes.clone();
        bad[frame_start..frame_start + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(decode_clips(&bad).unwrap_err().to_string().contains("non-finite feature"));
        // An infinite brightness, just after the features and truth bytes.
        let cells = clips[0].frames[0].truth.len();
        let meta_at = frame_start + clips[0].frames[0].features.len() * 4 + cells.div_ceil(8);
        let mut bad = bytes.clone();
        bad[meta_at..meta_at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        assert!(decode_clips(&bad).unwrap_err().to_string().contains("non-finite brightness"));
        // A frame count of zero under the first clip's non-zero dimensions.
        let mut bad = bytes[..frame_start].to_vec();
        bad[10 + 8 + 5..10 + 8 + 9].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_clips(&bad).unwrap_err().to_string().contains("empty clip"));
        let mut empty = clips[..1].to_vec();
        empty[0].frames.clear();
        assert_eq!(decode_clips(&encode_clips(&empty)).unwrap(), empty);
    }

    #[test]
    fn set_truth_padding_bits_are_rejected() {
        let mut clips = clips()[..1].to_vec();
        for frame in &mut clips[0].frames {
            frame.truth.truncate(13);
        }
        let bytes = encode_clips(&clips);
        assert_eq!(decode_clips(&bytes).unwrap(), clips);
        // The second truth byte holds cells 8..13 and three padding bits.
        let last_truth = 10 + CLIP_HEADER + clips[0].frames[0].features.len() * 4 + 1;
        let mut bad = bytes.clone();
        bad[last_truth] |= 0x80;
        assert!(decode_clips(&bad).unwrap_err().to_string().contains("padding"));
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        let clips = clips();
        let mut bytes = encode_clips(&clips[..1]);
        // The source tag sits right after header(6) + count(4) + id(8).
        bytes[18] = 9;
        assert!(decode_clips(&bytes).unwrap_err().to_string().contains("bad source tag"));
    }
}
