//! The offline APK repository (AndroZoo stand-in).
//!
//! Google Play's rate limiting let the paper download only a 287 K random
//! sample of APKs directly; the remaining 1.55 M of 2.03 M were fetched
//! offline from AndroZoo by `(package, version)` key. We run the same
//! two-source architecture: an unthrottled repository server whose catalog
//! covers a deterministic ~76% subset of Google Play listings — so the
//! crawler's backfill logic (and its residual metadata/APK mismatch) is
//! exercised for real.

use marketscope_core::hash::fnv1a64;
use marketscope_core::MarketId;
use marketscope_ecosystem::{ListingId, World};
use marketscope_net::http::{Method, Request, Response, Status};
use marketscope_net::server::{HttpServer, ServerHandle, ServerMetrics};
use marketscope_net::Transport;
use marketscope_telemetry::trace::Tracer;
use marketscope_telemetry::Registry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Fraction of Google Play listings the repository holds.
pub(crate) const COVERAGE: f64 = 0.7645; // 1,553,382 / 2,031,946

/// A running repository server.
pub(crate) struct AndroZooServer {
    handle: ServerHandle,
}

impl AndroZooServer {
    /// Spawn the repository over `world`'s Google Play catalog as one
    /// more listener on `transport` — a
    /// [`MarketFleet`](crate::MarketFleet)'s, or a fresh one the server
    /// then holds alone. Its request instruments are registered in
    /// `registry` under `market="androzoo"` and its request spans
    /// recorded by `tracer`, so backfill downloads show up in the same
    /// cross-process span trees as the market fetches they compensate
    /// for.
    pub(crate) fn spawn_on(
        transport: &Arc<Transport>,
        world: Arc<World>,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> Result<AndroZooServer, marketscope_net::NetError> {
        let mut index: HashMap<String, ListingId> = HashMap::new();
        for id in world.market_listings(MarketId::GooglePlay) {
            let listing = world.listing(*id);
            let app = world.app(listing.app);
            // Deterministic membership: hash the package into [0,1).
            let u = (fnv1a64(app.package.as_str().as_bytes()) % 10_000) as f64 / 10_000.0;
            if u < COVERAGE {
                index.insert(app.package.as_str().to_owned(), *id);
            }
        }
        let handler = move |req: &Request| serve_apk(&world, &index, req);
        let metrics = ServerMetrics::register(&registry, &[("market", "androzoo")]).traced(tracer);
        let handle = HttpServer::spawn_on(transport, "127.0.0.1:0", handler, metrics, None)?;
        Ok(AndroZooServer { handle })
    }

    /// Bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop serving.
    pub(crate) fn stop(&self) {
        self.handle.stop();
    }
}

/// The repository's one route, `GET /apk/{pkg}/{version}`: the APK of a
/// held package at exactly that version.
fn serve_apk(world: &World, index: &HashMap<String, ListingId>, req: &Request) -> Response {
    let segments = req.segments();
    let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
    let (Method::Get, ["apk", pkg, version]) = (req.method, segments.as_slice()) else {
        return Response::status(Status::NotFound);
    };
    let Some(id) = index.get(*pkg) else {
        return Response::status(Status::NotFound);
    };
    let listing = world.listing(*id);
    let Ok(version) = version.parse::<u32>() else {
        return Response::status(Status::BadRequest);
    };
    if version != listing.version {
        // AndroZoo is keyed by exact (package, version).
        return Response::status(Status::NotFound);
    }
    let bytes = world.build_apk(listing.app, listing.version, false);
    Response::ok("application/vnd.android.package-archive", bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::ParsedApk;
    use marketscope_ecosystem::{generate, Scale, WorldConfig};
    use marketscope_net::{HttpClient, ReactorConfig};
    use marketscope_telemetry::trace::TracerConfig;

    /// The repository on a transport of its own, with private telemetry.
    fn spawn(world: Arc<World>) -> AndroZooServer {
        let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(1024)));
        let transport = Transport::spawn(ReactorConfig::default()).unwrap();
        AndroZooServer::spawn_on(&transport, world, Arc::new(Registry::new()), tracer).unwrap()
    }

    #[test]
    fn repository_covers_most_of_google_play() {
        let w = Arc::new(generate(WorldConfig {
            seed: 3,
            scale: Scale { divisor: 20_000 },
        }));
        let repo = spawn(Arc::clone(&w));
        // A held package serves a correct APK for its exact version.
        let client = HttpClient::new();
        let mut served = 0;
        for id in w.market_listings(MarketId::GooglePlay) {
            let listing = w.listing(*id);
            let app = w.app(listing.app);
            let path = format!("/apk/{}/{}", app.package, listing.version);
            match client.get(repo.addr(), &path) {
                Ok(resp) => {
                    let parsed = ParsedApk::parse(&resp.body).unwrap();
                    assert_eq!(parsed.manifest.package, app.package);
                    served += 1;
                }
                Err(marketscope_net::NetError::Status { code: 404, .. }) => {}
                Err(e) => panic!("{e}"),
            }
        }
        let gp = w.market_listings(MarketId::GooglePlay).len();
        let share = served as f64 / gp as f64;
        assert!((0.6..0.9).contains(&share), "coverage {share}");
        assert!(served > 10, "served only {served}/{gp}");
    }

    #[test]
    fn wrong_version_is_a_miss() {
        let w = Arc::new(generate(WorldConfig {
            seed: 3,
            scale: Scale { divisor: 40_000 },
        }));
        let repo = spawn(Arc::clone(&w));
        let client = HttpClient::new();
        for id in w.market_listings(MarketId::GooglePlay).iter().take(30) {
            let listing = w.listing(*id);
            let app = w.app(listing.app);
            let path = format!("/apk/{}/{}", app.package, listing.version + 100);
            match client.get(repo.addr(), &path) {
                Err(marketscope_net::NetError::Status { code: 404, .. }) => return,
                Ok(_) => panic!("wrong version must 404"),
                Err(_) => continue,
            }
        }
    }
}
