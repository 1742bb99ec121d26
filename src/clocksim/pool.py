"""The fork pool shared by `clocksim run --workers` and `verify.sampler_equivalence`."""

import os


def fork_map(fn, tasks):
    """`[fn(*task) for task in tasks]`, on min(cpu count, len(tasks)) forked workers.

    Results come back in task order.  `fn` and every task are pickled, so `fn`
    is a module-level function.  With one worker the map runs serially in this
    process and imports no pool.
    """
    workers = min(os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # only a forked map pays for the pool's imports
    import concurrent.futures
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]
