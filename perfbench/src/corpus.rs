//! Seeded page histories shared by the `browse` and `archive` inputs.

use aide_util::time::{Duration, Timestamp};
use aide_workloads::{EditModel, Page, Rng};

/// The six edit models, cycled so every history exercises all of them.
pub const MODELS: [EditModel; 6] = [
    EditModel::AppendNews,
    EditModel::InPlaceEdit { sentences: 2 },
    EditModel::DeleteBlock,
    EditModel::Reformat,
    EditModel::FullReplace,
    EditModel::LinkChurn {
        added: 3,
        removed: 1,
    },
];

/// Virtual time of the first revision of every history.
pub fn t0() -> Timestamp {
    Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0)
}

/// The URL of document `i`.
pub fn url(i: usize) -> String {
    format!("http://www.site{:02}.org/doc{i:04}.html", i % 32)
}

/// Date of revision `rev` (1-based) of document `i`: a day apart,
/// offset per document so dates are distinct across documents.
pub fn rev_date(i: usize, rev: usize) -> Timestamp {
    t0() + Duration::days(rev as u64) + Duration::seconds(i as u64 * 7)
}

/// One document's evolving page: its structure, its edit stream and the
/// number of edits applied so far.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Structured content.
    pub page: Page,
    /// Rendered HTML of the current version.
    pub html: String,
    rng: Rng,
    step: u64,
}

impl Doc {
    /// Document `i` of the corpus for `seed`, sized `min..max` bytes.
    /// The size depends on `i` alone, so every seed gives the hot
    /// documents of a Zipf draw the same sizes; the seed picks the text.
    pub fn new(seed: u64, i: usize, min: usize, max: usize) -> Doc {
        let mut rng = Rng::new(seed).fork(0x5EED_0000 + i as u64);
        let span = max.saturating_sub(min).max(1) as u64;
        let size = min + ((i as u64).wrapping_mul(0x9E37_79B9) % span) as usize;
        let page = Page::generate(&mut rng, size);
        let html = page.render();
        Doc {
            page,
            html,
            rng,
            step: 0,
        }
    }

    /// Applies the next edit model in the cycle and returns the new
    /// HTML, which always differs from the previous version (an edit
    /// that left the text unchanged is followed by an appended item).
    pub fn edit(&mut self) -> &str {
        self.step += 1;
        let model = MODELS[(self.step as usize - 1) % MODELS.len()];
        model.apply(&mut self.page, &mut self.rng, self.step);
        let mut html = self.page.render();
        if html == self.html {
            EditModel::AppendNews.apply(&mut self.page, &mut self.rng, self.step);
            html = self.page.render();
        }
        self.html = html;
        &self.html
    }
}

/// The full history of document `i`: `revisions` versions, oldest
/// first.
pub fn history(seed: u64, i: usize, revisions: usize, min: usize, max: usize) -> Vec<String> {
    let mut doc = Doc::new(seed, i, min, max);
    let mut out = vec![doc.html.clone()];
    while out.len() < revisions {
        out.push(doc.edit().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(history(7, 3, 8, 4096, 16384), history(7, 3, 8, 4096, 16384));
        assert_ne!(history(7, 3, 8, 4096, 16384), history(8, 3, 8, 4096, 16384));
    }

    #[test]
    fn every_revision_differs_from_the_last() {
        let h = history(11, 5, 20, 4096, 8192);
        assert!(h.windows(2).all(|w| w[0] != w[1]));
        assert!(h[0].len() >= 4096);
    }
}
