"""Local emulation of the driver's correctness gate: run every queries()
entry at a given sf dir and compare row-count + order-insensitive values
against oracle_sql() via DuckDB.  Usage:

    python scripts/check_correctness.py [sf_dir] [query-or-glob ...]

e.g. ``python scripts/check_correctness.py testdata/sf0.01 'kg_bgp_*'``
(quote globs so the shell leaves them alone).
"""

import fnmatch
import os
import sys
import time
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent)
sys.path.insert(0, ROOT)
# Ray's workers import the package too, from whatever the working dir is
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if "datetime" in str(df[c].dtype):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype in (np.dtype("int32"), np.dtype("uint64")):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:]
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    failures = 0
    report = {}
    for name, fn in qs.items():
        if only and not any(fnmatch.fnmatchcase(name, pat) for pat in only):
            continue
        tic = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"ERROR  {name}: {type(e).__name__}: {e}")
            report[name] = {"status": "error",
                            "err": f"{type(e).__name__}: {e}"}
            failures += 1
            continue
        dur = time.perf_counter() - tic
        if name in oracles:
            want = canon(con.sql(oracles[name]).df())
            ok_rows = len(got) == len(want)
            ok_cols = list(got.columns) == list(want.columns)
            ok_vals = ok_rows and ok_cols and got.equals(want)
            status = "OK " if ok_vals else "MISMATCH"
            report[name] = {
                "status": "ok" if ok_vals else "mismatch",
                "oracle": True, "rows": len(got),
                "oracle_rows": len(want), "sec": round(dur, 1),
            }
            if not ok_vals:
                failures += 1
                print(f"{status} {name} ({dur:.1f}s) rows {len(got)} vs {len(want)}; cols {list(got.columns)} vs {list(want.columns)}")
                if ok_cols and ok_rows:
                    diff = (got != want).any(axis=1)
                    print("  first diffs:\n", got[diff].head(3), "\n  vs\n", want[diff].head(3))
            else:
                print(f"{status} {name} ({dur:.1f}s) rows={len(got)}")
        else:
            print(f"ROWS {name} ({dur:.1f}s) rows={len(got)} cols={list(got.columns)}")
            report[name] = {"status": "rows_only", "oracle": False,
                            "rows": len(got), "sec": round(dur, 1)}
    out_json = os.environ.get("CHECK_JSON")
    if out_json:
        import json

        with open(out_json, "w") as fh:
            json.dump({"sf_dir": sf_dir, "failures": failures,
                       "n_checked": len(report), "queries": report}, fh,
                      indent=1)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
