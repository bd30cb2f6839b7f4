fn main() {
    coma_experiments::exp::ablation::run(&coma_experiments::ExpCtx::from_env());
}
