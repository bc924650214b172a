//! String interning: names resolved once at the boundary, compared as ids.
//!
//! The front end sees every identifier many times — the lexer once per
//! occurrence, the parser once per use, lowering once per lookup — and
//! before this module each sighting cost a fresh `String`. The
//! [`Interner`] folds all of them into a single append-only text arena
//! plus a span table: interning an already-seen name is a hash probe and
//! two integer compares, no allocation at all. The [`Symbol`] it hands
//! back is the identifier for the rest of the front end; two names are
//! equal iff their symbols are equal, so scope tables, signature maps,
//! and the addressed-variable set all key on a `u32`.
//!
//! The interner's own table hashes names with the same FxHash-style
//! multiply-rotate scheme as [`ir::hash::FxHasher`] (std-only, no external
//! crates): fast on short ASCII keys and good enough for open addressing
//! at 3/4 load. Maps keyed by [`Symbol`] use [`ir::hash::FxHashMap`].

/// An interned identifier: an index into its [`Interner`]'s span table.
///
/// Symbols are only meaningful to the interner that produced them;
/// resolving one through a different interner is a logic error (and
/// panics if the index is out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's dense index, for direct-mapped side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style multiply-rotate hash of a byte string.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut state = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        state = (state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
    let mut tail = 0u64;
    for &b in chunks.remainder() {
        tail = (tail << 8) | b as u64;
    }
    state = (state.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    // Finalize with the length so prefixes of each other differ.
    (state.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(FX_SEED)
}

/// An append-only string interner: one concatenated text arena, a span
/// per symbol, and an open-addressing table from name to symbol.
///
/// ```
/// use minic::Interner;
///
/// let mut i = Interner::new();
/// let a = i.intern("x");
/// let b = i.intern("y");
/// assert_ne!(a, b);
/// assert_eq!(i.intern("x"), a); // no allocation on a repeat
/// assert_eq!(i.name(a), "x");
/// ```
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every interned name, concatenated.
    text: String,
    /// Byte span of each symbol in `text`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of `symbol_index + 1` (0 = empty slot);
    /// capacity is always a power of two.
    table: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner with a small pre-sized table.
    pub fn new() -> Interner {
        Interner {
            text: String::new(),
            spans: Vec::new(),
            table: vec![0; 64],
        }
    }

    /// The number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Interns `name`, returning its symbol. Allocates only the first
    /// time a distinct name is seen (and on table growth).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = hash_bytes(name.as_bytes());
        if let Some(sym) = self.probe(hash, name) {
            return sym;
        }
        if (self.spans.len() + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let start = self.text.len() as u32;
        self.text.push_str(name);
        let sym = Symbol(self.spans.len() as u32);
        self.spans.push((start, self.text.len() as u32));
        self.insert(hash, sym);
        sym
    }

    /// The name a symbol resolves to.
    pub fn name(&self, sym: Symbol) -> &str {
        let (start, end) = self.spans[sym.index()];
        &self.text[start as usize..end as usize]
    }

    /// Looks a name up without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.probe(hash_bytes(name.as_bytes()), name)
    }

    fn probe(&self, hash: u64, name: &str) -> Option<Symbol> {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                0 => return None,
                entry => {
                    let sym = Symbol(entry - 1);
                    if self.name(sym) == name {
                        return Some(sym);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u64, sym: Symbol) {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        while self.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = sym.0 + 1;
    }

    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_cap, 0);
        for i in 0..self.spans.len() {
            let sym = Symbol(i as u32);
            let hash = hash_bytes(self.name(sym).as_bytes());
            self.insert(hash, sym);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.intern("beta"), b);
        assert_eq!(i.name(a), "alpha");
        assert_eq!(i.name(b), "beta");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("x"), None);
        let s = i.intern("x");
        assert_eq!(i.lookup("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn survives_table_growth() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..500).map(|n| i.intern(&format!("name_{n}"))).collect();
        for (n, &sym) in syms.iter().enumerate() {
            assert_eq!(i.name(sym), format!("name_{n}"));
            assert_eq!(i.intern(&format!("name_{n}")), sym);
        }
        assert_eq!(i.len(), 500);
    }

    #[test]
    fn prefixes_are_distinct() {
        let mut i = Interner::new();
        let a = i.intern("ab");
        let b = i.intern("abc");
        let c = i.intern("a");
        assert!(a != b && b != c && a != c);
        assert_eq!(i.name(b), "abc");
    }

    #[test]
    fn empty_name_is_a_name() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.name(e), "");
        assert_eq!(i.intern(""), e);
    }
}
