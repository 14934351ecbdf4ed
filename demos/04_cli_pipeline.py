"""The full command-line pipeline in one script.

Runs simulate -> fit -> evaluate -> predict -> report through the CLI entry
point, then peeks at the artifacts each stage writes.
"""
import json
import tempfile
from pathlib import Path

from bivas.cli import main

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    sim, fit_dir = root / "sim", root / "fit"

    main(["simulate", "--n", "300", "--p", "80", "--k-groups", "8",
          "--pi", "0.4", "--alpha", "0.6", "--snr", "2.0", "--seed", "1",
          "--out", str(sim)])
    print("simulate wrote:", sorted(p.name for p in sim.iterdir()))

    main(["fit", "--data", str(sim / "data.csv"),
          "--groups", str(sim / "groups.csv"),
          "--grid-size", "8", "--fdr", "0.05",
          "--out", str(fit_dir)])
    print("fit wrote:     ", sorted(p.name for p in fit_dir.iterdir()))

    model = json.loads((fit_dir / "model.json").read_text())
    print("\ngrid table (pi, elbo, weight):")
    for row in model["grid"]:
        print(f"  {row['pi']:8.5f}  {row['elbo']:12.3f}  {row['weight']:.4f}")

    selection = json.loads((fit_dir / "selection.json").read_text())
    print(f"\nselected groups: {[g['group'] for g in selection['groups']]}")
    print(f"selected variables: "
          f"{[v['predictor'] for v in selection['variables']][:8]} ...")

    for rep in ("m1.csv", "m2.csv"):
        main(["evaluate", "--fit", str(fit_dir),
              "--truth", str(sim / "truth.json"),
              "--out", str(root / rep)])
    main(["report", "--metrics", str(root / "m1.csv"), str(root / "m2.csv"),
          "--out", str(root / "report.csv")])
    print("\nreport.csv:")
    print((root / "report.csv").read_text())

    main(["predict", "--model", str(fit_dir / "model.json"),
          "--data", str(sim / "data.csv"),
          "--groups", str(sim / "groups.csv"),
          "--out", str(root / "predictions.csv")])
    preds = (root / "predictions.csv").read_text().splitlines()
    print(f"predictions.csv: {len(preds) - 1} rows, first values "
          f"{[round(float(v), 3) for v in preds[1:4]]}")
