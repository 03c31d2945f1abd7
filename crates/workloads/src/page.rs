//! A structured page model that renders to 1995-flavoured HTML.
//!
//! Edits operate on this structure (insert a news item, rewrite a
//! sentence, turn a paragraph into a list) and the page re-renders, which
//! keeps the generated HTML well-formed while producing exactly the edit
//! patterns the differencing experiments need.

use crate::rng::Rng;
use crate::textgen::{natural_sentence, title};

/// One block-level element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// `<H2>` heading.
    Heading(String),
    /// `<P>` paragraph of sentences.
    Para(Vec<String>),
    /// `<UL>` of items.
    List(Vec<String>),
    /// `<HR>`.
    Rule,
    /// An anchor line: `<P><A HREF=url>text</A>`.
    Link {
        /// Target URL.
        href: String,
        /// Anchor text.
        text: String,
    },
    /// An inline image on its own line.
    Image {
        /// Image URL.
        src: String,
    },
}

/// A structured page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// `<TITLE>` text.
    pub title: String,
    /// Body blocks.
    pub blocks: Vec<Block>,
}

impl Page {
    /// Renders to HTML.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("<HTML>\n<HEAD><TITLE>");
        out.push_str(&self.title);
        out.push_str("</TITLE></HEAD>\n<BODY>\n<H1>");
        out.push_str(&self.title);
        out.push_str("</H1>\n");
        for b in &self.blocks {
            match b {
                Block::Heading(h) => out.push_str(&format!("<H2>{h}</H2>\n")),
                Block::Para(sentences) => {
                    out.push_str("<P>");
                    out.push_str(&sentences.join(" "));
                    out.push('\n');
                }
                Block::List(items) => {
                    out.push_str("<UL>\n");
                    for item in items {
                        out.push_str(&format!("<LI>{item}\n"));
                    }
                    out.push_str("</UL>\n");
                }
                Block::Rule => out.push_str("<HR>\n"),
                Block::Link { href, text } => {
                    out.push_str(&format!("<P><A HREF=\"{href}\">{text}</A>\n"));
                }
                Block::Image { src } => out.push_str(&format!("<P><IMG SRC=\"{src}\">\n")),
            }
        }
        out.push_str("</BODY>\n</HTML>\n");
        out
    }

    /// Approximate rendered size in bytes.
    pub fn byte_size(&self) -> usize {
        self.render().len()
    }

    /// Generates a page with roughly `target_bytes` of content.
    pub fn generate(rng: &mut Rng, target_bytes: usize) -> Page {
        let mut page = Page {
            title: title(rng),
            blocks: Vec::new(),
        };
        while page.byte_size() < target_bytes {
            match rng.below(10) {
                0 => page.blocks.push(Block::Heading(title(rng))),
                1 => {
                    let items = (0..rng.range(2, 6))
                        .map(|_| natural_sentence(rng))
                        .collect();
                    page.blocks.push(Block::List(items));
                }
                2 => page.blocks.push(Block::Rule),
                3 => page.blocks.push(Block::Link {
                    href: format!(
                        "http://www.site{}.com/page{}.html",
                        rng.below(40),
                        rng.below(200)
                    ),
                    text: title(rng),
                }),
                4 => page.blocks.push(Block::Image {
                    src: format!("/icons/pic{}.gif", rng.below(30)),
                }),
                _ => {
                    let sentences = (0..rng.range(2, 6))
                        .map(|_| natural_sentence(rng))
                        .collect();
                    page.blocks.push(Block::Para(sentences));
                }
            }
        }
        page
    }

    /// Indices of paragraph blocks.
    pub fn para_indices(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, Block::Para(_)))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_wellformed_html() {
        let mut rng = Rng::new(1);
        let p = Page::generate(&mut rng, 2000);
        let html = p.render();
        assert!(html.starts_with("<HTML>"));
        assert!(html.contains("<TITLE>"));
        assert!(html.ends_with("</HTML>\n"));
        assert_eq!(html.matches("<UL>").count(), html.matches("</UL>").count());
    }

    #[test]
    fn generate_hits_target_size() {
        let mut rng = Rng::new(2);
        for target in [500usize, 5_000, 20_000] {
            let p = Page::generate(&mut rng, target);
            let size = p.byte_size();
            assert!(size >= target, "size {size} under target {target}");
            assert!(
                size < target + 2_000,
                "size {size} far over target {target}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Page::generate(&mut Rng::new(7), 3000);
        let b = Page::generate(&mut Rng::new(7), 3000);
        assert_eq!(a, b);
    }

    #[test]
    fn render_parses_with_htmlkit() {
        let mut rng = Rng::new(3);
        let p = Page::generate(&mut rng, 4000);
        let html = p.render();
        let tokens = aide_htmlkit::lexer::lex(&html);
        assert!(tokens.len() > 10);
        // Round-trips through the lexer+serializer.
        let round = aide_htmlkit::lexer::serialize(&tokens);
        let again = aide_htmlkit::lexer::serialize(&aide_htmlkit::lexer::lex(&round));
        assert_eq!(round, again);
    }

    #[test]
    fn para_indices_finds_paragraphs() {
        let p = Page {
            title: "T".to_string(),
            blocks: vec![
                Block::Heading("h".to_string()),
                Block::Para(vec!["One.".to_string()]),
                Block::Rule,
                Block::Para(vec!["Two.".to_string()]),
            ],
        };
        assert_eq!(p.para_indices(), vec![1, 3]);
    }
}
