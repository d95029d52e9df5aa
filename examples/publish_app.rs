//! Play the role of an app developer (Section 2.1): build an APK, then
//! try to publish it to every one of the 17 stores and compare their
//! publication rules — copyright certificates, company-only policies,
//! category restrictions, mandatory packers, size caps and vetting times.
//!
//! ```text
//! cargo run --release --example publish_app
//! ```

use marketscope::apk::builder::ApkBuilder;
use marketscope::apk::dex::DexFile;
use marketscope::apk::manifest::Manifest;
use marketscope::core::json::Json;
use marketscope::core::{DeveloperKey, MarketId, PackageName, VersionCode};
use marketscope::ecosystem::{generate, Scale, WorldConfig};
use marketscope::market::MarketFleet;
use marketscope::net::http::{Method, Request, Response};
use marketscope::net::NetError;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn build_app(category: &str, jiagu: bool) -> Vec<u8> {
    let manifest = Manifest {
        package: PackageName::new("com.indie.megarunner").unwrap(),
        version_code: VersionCode(1),
        version_name: "1.0".into(),
        min_sdk: 14,
        target_sdk: 25,
        app_label: "Mega Runner".into(),
        permissions: vec!["android.permission.INTERNET".into()],
        category: category.into(),
        components: vec![],
    };
    let mut dex = DexFile::default();
    dex.push_class("Lcom/indie/megarunner/Main;");
    dex.push_method(0xC0FFEE, &[], &[]);
    if jiagu {
        // 360 requires packing with Jiagubao before submission.
        dex.push_class("Lcom/jiagu/StubLoader;");
    }
    ApkBuilder::new(manifest, dex)
        .build(DeveloperKey::from_label("indie-dev"))
        .unwrap()
}

/// POST the upload over a plain socket (the HTTP client only sends GETs)
/// and read the one answer the store sends before it closes.
fn post_upload(addr: SocketAddr, req: &Request) -> Result<Response, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    req.write_to(&mut stream)?;
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire)?;
    Response::parse_partial(&wire)?
        .map(|(resp, _)| resp)
        .ok_or(NetError::UnexpectedEof)
}

fn submit(addr: SocketAddr, body: Vec<u8>, certs: &[(&str, &str)]) -> String {
    let mut req = Request::get("/upload");
    req.method = Method::Post;
    req.body = body;
    req.headers
        .insert("connection".to_owned(), "close".to_owned());
    for (k, v) in certs {
        req.headers.insert((*k).to_owned(), (*v).to_owned());
    }
    match post_upload(addr, &req) {
        Ok(resp) => {
            let doc =
                Json::parse(std::str::from_utf8(&resp.body).unwrap_or("{}")).unwrap_or(Json::Null);
            match doc.get("status").and_then(Json::as_str) {
                Some("pending") => format!(
                    "pending (vetting ≈ {} days)",
                    doc.get("vetting_days")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                ),
                Some("listed") => "listed immediately — no vetting".to_owned(),
                Some("rejected") => format!(
                    "REJECTED: {}",
                    doc.get("reason").and_then(Json::as_str).unwrap_or("?")
                ),
                _ => "unexpected response".to_owned(),
            }
        }
        Err(e) => format!("transport error: {e}"),
    }
}

fn main() {
    let world = Arc::new(generate(WorldConfig {
        seed: 6,
        scale: Scale { divisor: 60_000 },
    }));
    let fleet = MarketFleet::spawn(world).expect("fleet");

    println!("=== first attempt: a games app, no certificates ===");
    for m in [MarketId::TencentMyapp, MarketId::HiApk, MarketId::LenovoMm] {
        let verdict = submit(fleet.addr(m), build_app("Game", false), &[]);
        println!("  {:<14} {verdict}", m.slug());
    }

    println!("\n=== second attempt: with a Software Copyright Certificate ===");
    let certs = [("x-copyright-cert", "SCC-2017-0042")];
    for m in MarketId::ALL {
        let verdict = submit(fleet.addr(m), build_app("Game", false), &certs);
        println!("  {:<14} {verdict}", m.slug());
    }

    println!("\n=== fixing the rejections ===");
    println!(
        "  lenovo (as a company): {}",
        submit(
            fleet.addr(MarketId::LenovoMm),
            build_app("Game", false),
            &[
                ("x-copyright-cert", "SCC-2017-0042"),
                ("x-company-cert", "Indie Ltd.")
            ],
        )
    );
    println!(
        "  oppo (as a theme app): {}",
        submit(
            fleet.addr(MarketId::OppoMarket),
            build_app("Personalization", false),
            &certs
        )
    );
    println!(
        "  360 (packed with Jiagubao): {}",
        submit(
            fleet.addr(MarketId::Market360),
            build_app("Game", true),
            &certs
        )
    );
    fleet.stop();
}
