//! Stable per-form identity for the incremental recompilation cache.
//!
//! [`form_hash`] fingerprints a top-level form's *meaning-relevant* content:
//! node structure, atom values, and source locations. Source offsets are
//! included deliberately — profile weights are keyed by `SourceObject`
//! (file + byte offsets), so a form whose text shifted must hash differently
//! even when its datum structure is unchanged: its profile points moved, and
//! any cached expansion that baked in the old points would be stale.
//!
//! Hygiene marks are *excluded*: reader output carries no marks, and the
//! cache keys forms as read, before any expansion.

use pgmp_syntax::{Datum, FnvHasher, Syntax, SyntaxBody};
use std::hash::Hasher;

fn put_u64(h: &mut FnvHasher, v: u64) {
    // Fixed little-endian, so fingerprints agree across platforms.
    h.write(&v.to_le_bytes());
}

fn put_str(h: &mut FnvHasher, s: &str) {
    // Length-prefix so ("ab","c") and ("a","bc") differ.
    put_u64(h, s.len() as u64);
    h.write(s.as_bytes());
}

fn hash_datum(h: &mut FnvHasher, d: &Datum) {
    match d {
        Datum::Nil => h.write_u8(0),
        Datum::Bool(b) => {
            h.write_u8(1);
            h.write_u8(*b as u8);
        }
        Datum::Int(i) => {
            h.write_u8(2);
            put_u64(h, *i as u64);
        }
        Datum::Float(f) => {
            h.write_u8(3);
            put_u64(h, f.to_bits());
        }
        Datum::Char(c) => {
            h.write_u8(4);
            put_u64(h, *c as u64);
        }
        Datum::Str(s) => {
            h.write_u8(5);
            put_str(h, s);
        }
        Datum::Sym(s) => {
            h.write_u8(6);
            put_str(h, s.as_str());
        }
        Datum::Pair(p) => {
            h.write_u8(7);
            hash_datum(h, &p.0);
            hash_datum(h, &p.1);
        }
        Datum::Vector(v) => {
            h.write_u8(8);
            put_u64(h, v.len() as u64);
            for e in v.iter() {
                hash_datum(h, e);
            }
        }
    }
}

fn hash_node(h: &mut FnvHasher, stx: &Syntax) {
    match stx.source {
        Some(src) => {
            h.write_u8(1);
            put_str(h, src.file.as_str());
            put_u64(h, src.bfp as u64);
            put_u64(h, src.efp as u64);
        }
        None => h.write_u8(0),
    }
    match &stx.body {
        SyntaxBody::Atom(d) => {
            h.write_u8(10);
            hash_datum(h, d);
        }
        SyntaxBody::List(elems) => {
            h.write_u8(11);
            put_u64(h, elems.len() as u64);
            for e in elems {
                hash_node(h, e);
            }
        }
        SyntaxBody::Improper(elems, tail) => {
            h.write_u8(12);
            put_u64(h, elems.len() as u64);
            for e in elems {
                hash_node(h, e);
            }
            hash_node(h, tail);
        }
        SyntaxBody::Vector(elems) => {
            h.write_u8(13);
            put_u64(h, elems.len() as u64);
            for e in elems {
                hash_node(h, e);
            }
        }
    }
}

/// Fingerprints a top-level form for cache keying: structure, atoms, and
/// source positions, ignoring hygiene marks.
pub fn form_hash(stx: &Syntax) -> u64 {
    let mut h = FnvHasher::default();
    hash_node(&mut h, stx);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_reader::read_str;

    fn one(src: &str, file: &str) -> std::rc::Rc<Syntax> {
        read_str(src, file).unwrap().remove(0)
    }

    #[test]
    fn identical_text_hashes_equal() {
        assert_eq!(
            form_hash(&one("(+ 1 2)", "a.scm")),
            form_hash(&one("(+ 1 2)", "a.scm"))
        );
    }

    #[test]
    fn different_text_hashes_differ() {
        assert_ne!(
            form_hash(&one("(+ 1 2)", "a.scm")),
            form_hash(&one("(+ 1 3)", "a.scm"))
        );
    }

    #[test]
    fn shifted_offsets_hash_differently() {
        // Same datum, different byte positions: the profile points moved,
        // so the cache must treat it as a different form.
        let a = one("(+ 1 2)", "a.scm");
        let b = read_str("     (+ 1 2)", "a.scm").unwrap().remove(0);
        assert_eq!(a.to_datum().to_string(), b.to_datum().to_string());
        assert_ne!(form_hash(&a), form_hash(&b));
    }

    #[test]
    fn file_name_participates() {
        assert_ne!(
            form_hash(&one("(+ 1 2)", "a.scm")),
            form_hash(&one("(+ 1 2)", "b.scm"))
        );
    }

    #[test]
    fn marks_do_not_participate() {
        let a = one("(+ 1 2)", "a.scm");
        let marked = a.apply_mark(pgmp_syntax::Mark(7));
        assert_eq!(form_hash(&a), form_hash(&marked));
    }
}
