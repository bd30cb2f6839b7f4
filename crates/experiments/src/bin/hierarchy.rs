fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    coma_experiments::exp::hierarchy::run(&coma_experiments::ExpCtx::from_env(), smoke);
}
