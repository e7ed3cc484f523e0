//! Documents in the simulated web corpus.

use std::fmt;

/// A dense document identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A web document as the search engine returns it: URL, title and a short
/// description (the snippet Algorithm 2 filters on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Identifier, dense in the corpus.
    pub id: DocId,
    /// The result URL.
    pub url: String,
    /// Result title.
    pub title: String,
    /// Result description/snippet.
    pub description: String,
    /// Index into the topic bank this document was generated for.
    pub topic: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_id_displays() {
        assert_eq!(DocId(3).to_string(), "d3");
    }
}
