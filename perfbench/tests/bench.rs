//! The benchmark's own tests: every metric is emitted, every
//! correctness check can fail, and inputs are a function of the seed.

use aide::engine::AideEngine;
use aide_perfbench::check::{self, Expect, Fingerprint};
use aide_perfbench::{browse, corpus, http, run, Scale, Settings, Workload};
use aide_rcs::archive::{Archive, RevId};
use aide_serve::AideServer;
use aide_simweb::net::Web;
use aide_simweb::wire::RequestParser;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_workloads::sites::{population, PopulationConfig};
use std::path::PathBuf;

/// `(name, unit)` pairs listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn settings(workload: Workload, trace: bool, seed: u64) -> Settings {
    Settings {
        workload,
        seed,
        seconds: 0.4,
        trace,
        scale: Scale::Small,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
    }
}

// One test runs every workload: tracing and the observability
// registry are process-wide, so runs must not overlap.
#[test]
fn small_runs_emit_every_declared_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.len() >= 3 && layers.len() >= 40);
    for w in [Workload::Browse, Workload::Archive, Workload::Sweep] {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = run(&settings(w, trace, 3)).expect("small run");
            assert_eq!(out.failed, 0, "{w:?} trace={trace}: {:?}", out.errors);
            assert!(out.attempted > 0);
            let mut names = out.metrics.names();
            names.sort();
            let mut expected: Vec<String> = want.iter().map(|(n, _)| n.clone()).collect();
            expected.sort();
            assert_eq!(names, expected, "{w:?} trace={trace}");
            for (name, unit) in want.iter() {
                assert_eq!(out.metrics.unit(name), Some(unit.as_str()), "{name}");
                assert!(out.metrics.get(name).is_some_and(f64::is_finite), "{name}");
            }
            let json = out.metrics.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
        }
    }
}

fn fixture_server() -> AideServer {
    let url = "http://www.site00.org/doc0000.html";
    let web = Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
        1995, 9, 1, 0, 0, 0,
    )));
    let history = corpus::history(5, 0, 3, 1024, 2048);
    web.set_page(url, &history[0], web.clock().now()).unwrap();
    let engine = std::sync::Arc::new(AideEngine::new(web));
    engine.remember("u@bench", url).unwrap();
    for body in &history[1..] {
        engine.clock().advance(Duration::days(1));
        engine
            .web()
            .touch_page(url, body, engine.clock().now())
            .unwrap();
        engine.remember("u@bench", url).unwrap();
    }
    AideServer::new(engine)
}

fn respond(server: &AideServer, target: &str, extra: &[(&str, &str)]) -> http::Response {
    let mut parser = RequestParser::new();
    parser.push(&http::get(target, extra));
    let req = parser.take_request().unwrap().unwrap();
    let mut bytes = server.respond(&req).serialize(false);
    http::parse_response(&mut bytes).unwrap().unwrap()
}

#[test]
fn response_checks_fail_on_corrupted_responses() {
    let server = fixture_server();
    let target = "/diff?url=http://www.site00.org/doc0000.html&from=1.1&to=1.2";
    let page = respond(&server, target, &[]);
    assert!(check::check_response(&Expect::Page, &page).is_ok());
    let tag = page.header("etag").unwrap().trim_matches('"').to_string();

    // A 200 stripped of its validator, a wrong status, a 304 nobody
    // asked for, a 304 echoing the wrong tag.
    let mut no_tag = page.clone();
    no_tag
        .headers
        .retain(|(n, _)| !n.eq_ignore_ascii_case("etag"));
    assert!(check::check_response(&Expect::Page, &no_tag).is_err());
    let mut wrong = page.clone();
    wrong.status = 404;
    assert!(check::check_response(&Expect::Page, &wrong).is_err());
    let inm = format!("\"{tag}\"");
    let not_modified = respond(&server, target, &[("If-None-Match", &inm)]);
    assert!(check::check_response(&Expect::NotModified(tag.clone()), &not_modified).is_ok());
    assert!(check::check_response(&Expect::Page, &not_modified).is_err());
    assert!(check::check_response(&Expect::NotModified("d-0".into()), &not_modified).is_err());
    let gate = respond(&server, "/timegate/http://www.site00.org/doc0000.html", &[]);
    assert!(check::check_response(&Expect::Redirect, &gate).is_ok());
    assert!(check::check_response(&Expect::Redirect, &page).is_err());

    // One flipped byte in a body fetched over the wire.
    let direct = respond(&server, target, &[]);
    assert!(check::check_same_body(target, &page.body, &direct.body).is_ok());
    let mut corrupted = page.body.clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x20;
    assert!(check::check_same_body(target, &corrupted, &direct.body).is_err());
    assert!(check::check_same_body(target, &page.body[..mid], &direct.body).is_err());
}

#[test]
fn revision_checks_fail_on_corrupted_revisions() {
    let history = corpus::history(9, 1, 4, 1024, 2048);
    let date = corpus::rev_date(1, 1);
    let mut archive = Archive::create("u", &history[0], "g", "l", date);
    let mut prev = archive.head();
    for text in &history[1..] {
        let rev = archive.checkin(text, "g", "l", date).unwrap().rev();
        assert!(check::check_next_revision("u", prev, rev).is_ok());
        prev = rev;
    }
    assert!(check::check_next_revision("u", RevId(2), RevId(4)).is_err());
    assert!(check::check_next_revision("u", RevId(2), RevId(2)).is_err());

    let want = Fingerprint::of(&history[2]);
    let good = archive.checkout(RevId(3)).unwrap();
    assert!(check::check_checkout("u", RevId(3), &want, &good).is_ok());
    let mut bad = good.clone().into_bytes();
    bad[10] ^= 1;
    let bad = String::from_utf8(bad).unwrap();
    assert!(check::check_checkout("u", RevId(3), &want, &bad).is_err());
    let neighbour = archive.checkout(RevId(2)).unwrap();
    assert!(check::check_checkout("u", RevId(3), &want, &neighbour).is_err());

    // A Changed verdict for a page untouched since the user saw it.
    assert!(check::check_changed("u", "x", 4, 3).is_ok());
    assert!(check::check_changed("u", "x", 3, 3).is_err());
    assert!(check::check_changed("u", "x", 0, 0).is_err());
}

#[test]
fn same_seed_generates_byte_identical_inputs() {
    for i in [0, 7, 300] {
        assert_eq!(
            corpus::history(42, i, 6, 4096, 16384),
            corpus::history(42, i, 6, 4096, 16384)
        );
    }
    assert_ne!(
        corpus::history(42, 0, 2, 4096, 8192),
        corpus::history(43, 0, 2, 4096, 8192)
    );

    let pages = |seed: u64| {
        let web = Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
            1995, 9, 1, 0, 0, 0,
        )));
        let cfg = PopulationConfig {
            urls: 40,
            hosts: 4,
            ..PopulationConfig::default()
        };
        population(&web, seed, &cfg)
            .into_iter()
            .map(|p| (p.url, p.page.render()))
            .collect::<Vec<_>>()
    };
    assert_eq!(pages(11), pages(11));
    assert_ne!(pages(11), pages(12));

    let stream = browse::request_stream(5, 2000);
    assert_eq!(stream, browse::request_stream(5, 2000));
    assert_ne!(stream, browse::request_stream(6, 2000));
    for prefix in [
        "/report?",
        "/history?",
        "/view?",
        "/memento/",
        "/diff?",
        "/timegate/",
    ] {
        assert!(
            stream.iter().any(|t| t.starts_with(prefix)),
            "no {prefix} target"
        );
    }
}
