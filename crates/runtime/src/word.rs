//! Machine words, immediates, pointers, and object headers.
//!
//! A [`Word`] is a 64-bit value with a 3-bit tag:
//!
//! ```text
//! bits 2..0 = 0b001  → immediate integer (signed, bits 63..3)
//! bits 2..0 = 0b011  → special constant (unit/false/true/nil, bits 63..3)
//! bits 2..0 = 0b000  → heap pointer:
//!                       bits 22..3  = word offset within page (20 bits)
//!                       bits 46..23 = page index            (24 bits)
//!                       bits 62..47 = page epoch            (16 bits)
//! bits 2..0 = 0b111  → forwarding word: the pointer bits of an evacuated
//!                       object's copy, written by the collector over the
//!                       object's first word (never a value)
//! ```
//!
//! Unboxed values are *tagged* (the paper's partly tag-free scheme keeps
//! integers and booleans distinguishable from pointers at run time);
//! boxed objects carry a one-word header unless their region is
//! homogeneous and untagged (the BIBOP-style ablation, see `Heap`).

use std::fmt;

/// Size of a machine word in bytes — the one authority for every
/// words→bytes conversion (heap accounting, [`crate::HeapStats`], the
/// metrics snapshot). Everything in this runtime is word-addressed;
/// byte figures exist only for reporting.
pub const WORD_BYTES: u64 = 8;

/// A runtime word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word(pub u64);

const TAG_MASK: u64 = 0b111;
const TAG_INT: u64 = 0b001;
const TAG_SPECIAL: u64 = 0b011;
const TAG_FORWARD: u64 = 0b111;

impl Word {
    /// An immediate integer.
    #[inline]
    pub fn int(n: i64) -> Word {
        Word(((n as u64) << 3) | TAG_INT)
    }

    /// `()`
    pub const UNIT: Word = Word(TAG_SPECIAL);
    /// `false`
    pub const FALSE: Word = Word((1 << 3) | TAG_SPECIAL);
    /// `true`
    pub const TRUE: Word = Word((2 << 3) | TAG_SPECIAL);
    /// `nil`
    pub const NIL: Word = Word((3 << 3) | TAG_SPECIAL);

    /// A boolean.
    #[inline]
    pub fn bool(b: bool) -> Word {
        if b {
            Word::TRUE
        } else {
            Word::FALSE
        }
    }

    /// Builds a pointer word.
    #[inline]
    pub fn pointer(page: u32, offset: u32, epoch: u16) -> Word {
        debug_assert!(offset < (1 << 20));
        debug_assert!(page < (1 << 24));
        Word(((epoch as u64) << 47) | ((page as u64) << 23) | ((offset as u64) << 3))
    }

    /// Is this a heap pointer?
    #[inline]
    pub fn is_pointer(self) -> bool {
        self.0 & TAG_MASK == 0
    }

    /// Is this an immediate integer?
    #[inline]
    pub fn is_int(self) -> bool {
        self.0 & TAG_MASK == TAG_INT
    }

    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the word is not an integer.
    #[inline]
    pub fn as_int(self) -> i64 {
        assert!(self.is_int(), "word is not an integer: {self:?}");
        (self.0 as i64) >> 3
    }

    /// The boolean payload, if the word is `true`/`false`.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        if self == Word::TRUE {
            Some(true)
        } else if self == Word::FALSE {
            Some(false)
        } else {
            None
        }
    }

    /// Decomposes a pointer into `(page, offset, epoch)`.
    ///
    /// # Panics
    ///
    /// Panics if the word is not a pointer.
    #[inline]
    pub fn ptr_parts(self) -> (u32, u32, u16) {
        assert!(self.is_pointer(), "word is not a pointer: {self:?}");
        let page = ((self.0 >> 23) & 0xFF_FFFF) as u32;
        let offset = ((self.0 >> 3) & 0xF_FFFF) as u32;
        let epoch = ((self.0 >> 47) & 0xFFFF) as u16;
        (page, offset, epoch)
    }

    /// The forwarding word for an object evacuated to `copy` (a pointer).
    /// No value and no header has these low three bits, so the collector
    /// can write it over the first word of any object, header or field 0.
    pub(crate) fn forwarding(copy: Word) -> Word {
        debug_assert!(copy.is_pointer());
        Word(copy.0 | TAG_FORWARD)
    }

    /// The copy a forwarding word points at, or `None` for any other word.
    pub(crate) fn forwarded(self) -> Option<Word> {
        (self.0 & TAG_MASK == TAG_FORWARD).then_some(Word(self.0 & !TAG_MASK))
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "{}", self.as_int())
        } else if self.is_pointer() {
            let (p, o, e) = self.ptr_parts();
            write!(f, "ptr({p}:{o}@{e})")
        } else if *self == Word::UNIT {
            write!(f, "()")
        } else if *self == Word::TRUE {
            write!(f, "true")
        } else if *self == Word::FALSE {
            write!(f, "false")
        } else if *self == Word::NIL {
            write!(f, "nil")
        } else {
            write!(f, "word({:#x})", self.0)
        }
    }
}

/// Heap object kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ObjKind {
    /// `(v1, v2)` — two traceable fields.
    Pair = 1,
    /// Closure: `[code_id][region slots…][traceable captured words…]`.
    Closure = 2,
    /// String: `[byte length is in the header len][packed bytes…]`.
    Str = 3,
    /// Cons cell — two traceable fields.
    Cons = 4,
    /// Reference cell — one traceable field.
    Ref = 5,
    /// Exception value: `[name][tag][optional traceable arg]`.
    Exn = 6,
}

impl ObjKind {
    /// Decodes a kind byte. Kind 7 stays unused: its low three bits are
    /// the forwarding tag.
    #[inline]
    pub fn from_u8(b: u8) -> Option<ObjKind> {
        Some(match b {
            1 => ObjKind::Pair,
            2 => ObjKind::Closure,
            3 => ObjKind::Str,
            4 => ObjKind::Cons,
            5 => ObjKind::Ref,
            6 => ObjKind::Exn,
            _ => return None,
        })
    }
}

/// An object header: kind, payload length (in words, or bytes for
/// strings), and the number of leading raw (untraced) payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Object kind.
    pub kind: ObjKind,
    /// Payload length. For `Str` this is the *byte* length; the payload
    /// occupies `len.div_ceil(8)` words. For other kinds it is the number
    /// of payload words.
    pub len: u32,
    /// Leading payload words that the collector must not trace (code ids,
    /// region slots, exception tags).
    pub raw: u16,
}

impl Header {
    /// Encodes to a word.
    #[inline]
    pub fn encode(self) -> u64 {
        (self.kind as u64) | ((self.len as u64) << 8) | ((self.raw as u64) << 40)
    }

    /// Decodes from a word.
    #[inline]
    pub fn decode(w: u64) -> Option<Header> {
        let kind = ObjKind::from_u8((w & 0xFF) as u8)?;
        let len = ((w >> 8) & 0xFFFF_FFFF) as u32;
        let raw = ((w >> 40) & 0xFFFF) as u16;
        Some(Header { kind, len, raw })
    }

    /// Payload size in words. Strings pack `len` bytes, padded to at
    /// least one word. The collector does not need the pad (its
    /// forwarding word fits in the header), but dropping it would change
    /// the allocated and peak byte counts of every program that allocates
    /// `""`. Only `Str` can have an empty payload (every other kind has
    /// at least one field).
    pub fn payload_words(self) -> u32 {
        match self.kind {
            ObjKind::Str => self.len.div_ceil(8).max(1),
            _ => self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        for n in [0i64, 1, -1, 42, -1_000_000, i64::MAX >> 3, i64::MIN >> 3] {
            assert_eq!(Word::int(n).as_int(), n);
            assert!(Word::int(n).is_int());
            assert!(!Word::int(n).is_pointer());
        }
    }

    #[test]
    fn specials_are_distinct() {
        let all = [Word::UNIT, Word::TRUE, Word::FALSE, Word::NIL];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
            assert!(!a.is_pointer());
            assert!(!a.is_int());
        }
    }

    #[test]
    fn pointer_roundtrip() {
        let w = Word::pointer(123_456, 789, 42);
        assert!(w.is_pointer());
        assert_eq!(w.ptr_parts(), (123_456, 789, 42));
    }

    #[test]
    fn header_roundtrip() {
        let h = Header {
            kind: ObjKind::Closure,
            len: 17,
            raw: 3,
        };
        assert_eq!(Header::decode(h.encode()), Some(h));
    }

    #[test]
    fn string_payload_words() {
        let h = Header {
            kind: ObjKind::Str,
            len: 9,
            raw: 0,
        };
        assert_eq!(h.payload_words(), 2);
    }

    #[test]
    fn forwarding_words_are_neither_values_nor_headers() {
        for (page, epoch) in [(0, 0), (1, 1), (0xFF_FFFF, 0xFFFF), (4242, 7)] {
            for offset in 0..32 {
                let copy = Word::pointer(page, offset, epoch);
                let fwd = Word::forwarding(copy);
                assert!(!fwd.is_pointer() && !fwd.is_int());
                assert_ne!(fwd.0 & TAG_MASK, TAG_SPECIAL, "special");
                assert_eq!(Header::decode(fwd.0), None, "{fwd:?} decodes");
                assert_eq!(fwd.forwarded(), Some(copy));
                assert_eq!(copy.forwarded(), None);
            }
        }
        assert_eq!(Word::int(-1).forwarded(), None);
        assert_eq!(Word::NIL.forwarded(), None);
    }

    #[test]
    fn bool_helpers() {
        assert_eq!(Word::bool(true).as_bool(), Some(true));
        assert_eq!(Word::bool(false).as_bool(), Some(false));
        assert_eq!(Word::int(1).as_bool(), None);
    }
}
