let serve = Harness.Pool.serve
