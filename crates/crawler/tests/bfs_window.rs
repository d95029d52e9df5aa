//! Google Play's BFS keeps a window of `/related` expansions on its lane
//! and applies their answers in pop order. It must visit, find and rule
//! out exactly what a one-at-a-time BFS does, send its server one
//! `/related` per visited package in that BFS's order, and replay seeded
//! fault windows.

use marketscope_core::json::Json;
use marketscope_core::propcheck::{self, any_u64, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler, Snapshot};
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::server::{HttpServer, ServerHandle, ServerMetrics};
use marketscope_telemetry::Registry;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// The crawler's `BFS_WINDOW`: a frontier longer than this keeps the
/// window full.
const WINDOW: usize = 64;

/// A related-apps graph: the BFS store lists the first `listed` of
/// `names`; the rest are names it answers 404 for.
struct Graph {
    names: Vec<String>,
    listed: usize,
    /// `/related` of each listed package.
    related: Vec<Vec<String>>,
    /// The listed package whose `/related` answers 500.
    failing: String,
    seeds: Vec<String>,
}

impl Graph {
    fn generate(rng: &mut DetRng) -> Graph {
        let listed = usize_in(rng, 1..160);
        let unlisted = usize_in(rng, 1..12);
        let names: Vec<String> = (0..listed)
            .map(|i| format!("com.bfs{i:03}.app"))
            .chain((0..unlisted).map(|i| format!("org.gone{i:02}.app")))
            .collect();
        let related = (0..listed)
            .map(|i| {
                // A few hubs push the frontier past the window.
                let degree = if rng.chance(0.05) {
                    usize_in(rng, 40..120)
                } else {
                    usize_in(rng, 0..6)
                };
                (0..degree)
                    .map(|_| {
                        if rng.chance(0.05) {
                            names[i].clone()
                        } else {
                            rng.pick(&names).clone()
                        }
                    })
                    .collect()
            })
            .collect();
        let failing = names[rng.index(listed)].clone();
        let seeds = vec_of(rng, 1..90, |r| r.pick(&names).clone());
        Graph {
            names,
            listed,
            related,
            failing,
            seeds,
        }
    }

    /// The store's position of `pkg`, if it lists it.
    fn position(&self, pkg: &str) -> Option<usize> {
        self.names[..self.listed].iter().position(|n| n == pkg)
    }
}

/// What the one-at-a-time BFS did: probe `/app/{pkg}` for each new
/// package, expand `/related/{pkg}` for each one found, never more than
/// one request in flight.
struct Reference {
    visits: Vec<String>,
    found: Vec<String>,
    misses: HashSet<String>,
    /// Links, from the packages it expanded, back to themselves, to
    /// another package already visited, and to a name the store does not
    /// list.
    self_links: usize,
    back_links: usize,
    unlisted_links: usize,
    longest_frontier: usize,
}

fn reference_bfs(g: &Graph) -> Reference {
    let mut r = Reference {
        visits: Vec::new(),
        found: Vec::new(),
        misses: HashSet::new(),
        self_links: 0,
        back_links: 0,
        unlisted_links: 0,
        longest_frontier: g.seeds.len(),
    };
    let mut frontier: VecDeque<String> = g.seeds.iter().cloned().collect();
    let mut visited = HashSet::new();
    while let Some(pkg) = frontier.pop_front() {
        if !visited.insert(pkg.clone()) {
            continue;
        }
        r.visits.push(pkg.clone());
        let Some(i) = g.position(&pkg) else {
            r.misses.insert(pkg);
            continue;
        };
        r.found.push(pkg.clone());
        if pkg == g.failing {
            continue;
        }
        for next in &g.related[i] {
            r.self_links += usize::from(*next == pkg);
            r.back_links += usize::from(*next != pkg && visited.contains(next));
            r.unlisted_links += usize::from(g.position(next).is_none());
            if !visited.contains(next) {
                frontier.push_back(next.clone());
            }
        }
        r.longest_frontier = r.longest_frontier.max(frontier.len());
    }
    r
}

fn listing(pkg: &str) -> Response {
    Response::json(&Json::obj([
        ("package", Json::from(pkg)),
        ("name", Json::from("Mock")),
        ("version_code", Json::from(1u64)),
    ]))
}

/// The BFS market: `/related` and `/app` over `g`, behind `faults` if
/// given. The log holds every path the handlers served, in order.
fn bfs_store(
    g: &Arc<Graph>,
    faults: Option<FaultInjector>,
) -> (ServerHandle, Arc<Mutex<Vec<String>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let (g, served) = (Arc::clone(g), Arc::clone(&log));
    let router = move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["related", pkg] => {
                served.lock().unwrap().push(format!("/related/{pkg}"));
                match g.position(pkg) {
                    None => Response::status(Status::NotFound),
                    Some(_) if pkg == g.failing => Response::status(Status::InternalError),
                    Some(i) => {
                        let related = g.related[i].iter().map(|n| Json::from(n.as_str()));
                        Response::json(&Json::obj([("related", Json::Arr(related.collect()))]))
                    }
                }
            }
            ["app", pkg] => {
                served.lock().unwrap().push(format!("/app/{pkg}"));
                match g.position(pkg) {
                    Some(_) => listing(pkg),
                    None => Response::status(Status::NotFound),
                }
            }
            _ => Response::status(Status::NotFound),
        }
    };
    let server = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        router,
        ServerMetrics::standalone(),
        faults.map(Arc::new),
    )
    .unwrap();
    (server, log)
}

/// An index market listing `names`, 50 to a page.
fn index_store(names: &[String]) -> ServerHandle {
    let listed = names.to_vec();
    HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let page: usize = req
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                let start = (page * 50).min(listed.len());
                let end = (start + 50).min(listed.len());
                let page_of = listed[start..end].iter().map(|p| Json::from(p.as_str()));
                let mut fields = vec![("packages", Json::Arr(page_of.collect()))];
                if end < listed.len() {
                    fields.push(("next", Json::from((page + 1) as u64)));
                }
                Response::json(&Json::obj(fields))
            }
            ["app", pkg] if listed.iter().any(|p| p == pkg) => listing(pkg),
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

/// Google Play at `bfs`, every other market at `index`.
fn targets(bfs: &ServerHandle, index: &ServerHandle) -> CrawlTargets {
    CrawlTargets {
        markets: MarketId::ALL
            .iter()
            .map(|m| {
                if *m == MarketId::GooglePlay {
                    bfs.addr()
                } else {
                    index.addr()
                }
            })
            .collect(),
        repository: None,
    }
}

fn config(seeds: &[String]) -> CrawlConfig {
    CrawlConfig {
        seeds: seeds.to_vec(),
        fetch_apks: false,
        retry: None,
        breaker: None,
        ..CrawlConfig::default()
    }
}

fn google_play(snap: &Snapshot) -> Vec<String> {
    snap.market(MarketId::GooglePlay)
        .listings
        .iter()
        .map(|l| l.package.clone())
        .collect()
}

#[test]
fn the_windowed_bfs_visits_finds_and_rules_out_what_the_sequential_one_did() {
    // Cycles, self-links, links to unlisted names, duplicate and unlisted
    // seeds, a visited 500 and a frontier past the window, each seen in
    // at least one case.
    let mut covered = [false; 6];
    let mut faults_seen = 0;
    propcheck::check("bfs_window::sequential_oracle", 32, |rng| {
        let g = Arc::new(Graph::generate(rng));
        let r = reference_bfs(&g);
        // Every other market lists every name, so parallel search asks
        // Google Play for each one its BFS neither found nor ruled out.
        let index = index_store(&g.names);
        let mut probes: Vec<&String> = g
            .names
            .iter()
            .filter(|n| !r.found.contains(n) && !r.misses.contains(*n))
            .collect();
        probes.sort();
        let mut expected_log: Vec<String> =
            r.visits.iter().map(|p| format!("/related/{p}")).collect();
        expected_log.extend(r.found.iter().map(|p| format!("/app/{p}")));
        expected_log.extend(probes.iter().map(|p| format!("/app/{p}")));
        let mut expected_listings = r.found.clone();
        expected_listings.extend(
            probes
                .iter()
                .filter(|p| g.position(p).is_some())
                .map(|p| (*p).clone()),
        );

        let (store, log) = bfs_store(&g, None);
        let snap = Crawler::new(config(&g.seeds)).crawl(&targets(&store, &index));
        assert_eq!(
            google_play(&snap),
            expected_listings,
            "found order, then search hits"
        );
        assert_eq!(
            *log.lock().unwrap(),
            expected_log,
            "the store's request log"
        );

        // The same crawl twice under one seeded fault plan: the lane
        // order holds with a window, so the downtime windows land on the
        // same requests.
        let plan = FaultPlan {
            downtime_every: usize_in(rng, 5..12) as u64,
            downtime_len: usize_in(rng, 1..3) as u64,
            ..FaultPlan::none()
        };
        let seed = any_u64(rng);
        let faulted = || {
            let registry = Registry::new();
            let injector = FaultInjector::instrumented(seed, plan, &registry, &[]);
            let (store, _) = bfs_store(&g, Some(injector));
            let snap = Crawler::new(config(&g.seeds)).crawl(&targets(&store, &index));
            let injected: u64 = ["reset", "stall", "truncate", "error", "downtime"]
                .iter()
                .filter_map(|fault| {
                    registry
                        .snapshot()
                        .counter_value("marketscope_net_faults_injected_total", &[("fault", fault)])
                })
                .sum();
            (google_play(&snap), injected)
        };
        let first = faulted();
        assert_eq!(first, faulted(), "two crawls under one fault seed");
        faults_seen += first.1;

        let seeds: HashSet<&String> = g.seeds.iter().collect();
        covered[0] |= r.back_links > 0;
        covered[1] |= r.self_links > 0;
        covered[2] |= r.unlisted_links > 0;
        covered[3] |=
            seeds.len() < g.seeds.len() && g.seeds.iter().any(|s| g.position(s).is_none());
        covered[4] |= r.found.contains(&g.failing);
        covered[5] |= r.longest_frontier > WINDOW;
    });
    assert_eq!(
        covered, [true; 6],
        "cycle, self-link, unlisted link, seeds, 500, long frontier"
    );
    assert!(faults_seen > 0, "the fault plans never fired");
}
