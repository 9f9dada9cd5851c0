//! Decoding machine words back to inspectable Rust values.

use rml_runtime::{Heap, ObjKind, Word};

/// A decoded run-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunValue {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Unit.
    Unit,
    /// String.
    Str(String),
    /// List.
    List(Vec<RunValue>),
    /// Pair.
    Pair(Box<RunValue>, Box<RunValue>),
    /// A function value.
    Closure,
    /// A reference cell (contents decoded).
    Ref(Box<RunValue>),
    /// An exception value.
    Exn(String),
    /// A value that could not be decoded (dangling or corrupt).
    Opaque,
}

impl std::fmt::Display for RunValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunValue::Int(n) => write!(f, "{n}"),
            RunValue::Bool(b) => write!(f, "{b}"),
            RunValue::Unit => write!(f, "()"),
            RunValue::Str(s) => write!(f, "{s:?}"),
            RunValue::List(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            RunValue::Pair(a, b) => write!(f, "({a}, {b})"),
            RunValue::Closure => write!(f, "fn"),
            RunValue::Ref(v) => write!(f, "ref {v}"),
            RunValue::Exn(n) => write!(f, "exn {n}"),
            RunValue::Opaque => write!(f, "<opaque>"),
        }
    }
}

/// Structures nested deeper than this decode to [`RunValue::Opaque`]:
/// protects against cyclic reference graphs (a `ref` that reaches itself)
/// and pathological nesting blowing the Rust stack.
const MAX_DEPTH: usize = 512;

/// Decodes a word (deeply) against the heap.
pub fn decode(heap: &Heap, w: Word) -> RunValue {
    decode_at(heap, w, 0)
}

fn decode_at(heap: &Heap, w: Word, depth: usize) -> RunValue {
    if depth > MAX_DEPTH {
        return RunValue::Opaque;
    }
    if w.is_int() {
        return RunValue::Int(w.as_int());
    }
    if let Some(b) = w.as_bool() {
        return RunValue::Bool(b);
    }
    if w == Word::UNIT {
        return RunValue::Unit;
    }
    if w == Word::NIL {
        return RunValue::List(Vec::new());
    }
    let Ok(h) = heap.header(w, "decode") else {
        return RunValue::Opaque;
    };
    match h.kind {
        ObjKind::Str => heap
            .read_str(w, "decode")
            .map(RunValue::Str)
            .unwrap_or(RunValue::Opaque),
        ObjKind::Pair => {
            let a = heap
                .field(w, 0, "decode")
                .map(|x| decode_at(heap, x, depth + 1));
            let b = heap
                .field(w, 1, "decode")
                .map(|x| decode_at(heap, x, depth + 1));
            match (a, b) {
                (Ok(a), Ok(b)) => RunValue::Pair(Box::new(a), Box::new(b)),
                _ => RunValue::Opaque,
            }
        }
        ObjKind::Cons => {
            let mut items = Vec::new();
            let mut cur = w;
            loop {
                if cur == Word::NIL {
                    return RunValue::List(items);
                }
                // A cyclic spine (made with `ref` tricks) must terminate
                // too, not just deep element nesting.
                if items.len() > (1 << 24) {
                    return RunValue::Opaque;
                }
                let Ok(h) = heap.field(cur, 0, "decode") else {
                    return RunValue::Opaque;
                };
                items.push(decode_at(heap, h, depth + 1));
                match heap.field(cur, 1, "decode") {
                    Ok(t) => cur = t,
                    Err(_) => return RunValue::Opaque,
                }
            }
        }
        ObjKind::Ref => heap
            .field(w, 0, "decode")
            .map(|x| RunValue::Ref(Box::new(decode_at(heap, x, depth + 1))))
            .unwrap_or(RunValue::Opaque),
        ObjKind::Closure => RunValue::Closure,
        ObjKind::Exn => {
            // The name index is a raw heap word: resolve it fallibly so a
            // corrupted heap decodes to something printable, not a panic.
            let name = heap
                .field(w, 0, "decode")
                .ok()
                .and_then(|x| u32::try_from(x.0).ok())
                .and_then(rml_syntax::Symbol::lookup_index)
                .unwrap_or("<unknown>");
            RunValue::Exn(name.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rml_runtime::{Heap, RegionKind};

    #[test]
    fn immediates_decode() {
        let h = Heap::new();
        assert_eq!(decode(&h, Word::int(-7)), RunValue::Int(-7));
        assert_eq!(decode(&h, Word::TRUE), RunValue::Bool(true));
        assert_eq!(decode(&h, Word::UNIT), RunValue::Unit);
        assert_eq!(decode(&h, Word::NIL), RunValue::List(vec![]));
    }

    #[test]
    fn structures_decode_deeply() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(r, "hi");
        let cons = h.alloc(r, ObjKind::Cons, 0, &[Word::int(1).0, Word::NIL.0]);
        let pair = h.alloc(r, ObjKind::Pair, 0, &[s.0, cons.0]);
        assert_eq!(
            decode(&h, pair),
            RunValue::Pair(
                Box::new(RunValue::Str("hi".into())),
                Box::new(RunValue::List(vec![RunValue::Int(1)]))
            )
        );
    }

    #[test]
    fn dangling_decodes_to_opaque() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(r, "gone");
        h.drop_region(r);
        assert_eq!(decode(&h, s), RunValue::Opaque);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RunValue::Int(3).to_string(), "3");
        assert_eq!(
            RunValue::List(vec![RunValue::Int(1), RunValue::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            RunValue::Pair(Box::new(RunValue::Unit), Box::new(RunValue::Bool(false))).to_string(),
            "((), false)"
        );
        assert_eq!(RunValue::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
    }
}
