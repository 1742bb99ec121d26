"""The fork pool shared by `clocksim run --workers` and `verify.sampler_equivalence`."""

import os

_inherited = None  # (fn, tasks) of the running `fork_map`; set only in its forked workers


def _inherit(fn, tasks):
    global _inherited
    _inherited = fn, tasks


def _run_task(i):
    fn, tasks = _inherited
    return fn(*tasks[i])


def fork_map(fn, tasks):
    """`[fn(*task) for task in tasks]`, on min(cpu count, len(tasks)) forked workers.

    Results come back in task order.  The forked workers inherit `fn` and
    the tasks, so neither is pickled (a task may hold a built model); only
    the results are.  With one worker the map runs serially in this process
    and imports no pool.
    """
    workers = min(os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # only a forked map pays for the pool's imports
    import concurrent.futures
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=ctx, initializer=_inherit,
                                                initargs=(fn, tasks)) as pool:
        return list(pool.map(_run_task, range(len(tasks))))
