#!/usr/bin/env bash
# The installed esbiii end to end, with the numpy it was installed with:
#
#     bash tools/install_smoke.sh WORKDIR
#
# Needs the package installed (the `esbiii` command and `import esbiii`)
# and jsonschema; writes its files into WORKDIR.  Runs sample, fit, gof and
# diagnose through the command and validates their documents against the
# schema shipped in the package, fits the same file reversed, and reads a
# 1e5-line sample file back, as the CLI writes it and as numpy.savetxt
# writes it with "%.16e".
set -euo pipefail
cd "$1"
esbiii --version
python -c "import json; from importlib import resources; json.loads(resources.files('esbiii').joinpath('schemas/output.schema.json').read_text()); print('schema loads')"

export SOURCE_DATE_EPOCH=1700000000
esbiii sample --mu 0 --sigma 1 --c 3 --k 0.5 --eps 0.3 --n 200 --seed 1 --out smoke.csv
esbiii fit --input smoke.csv --out smoke_fit.json
esbiii gof --input smoke.csv --fit-result smoke_fit.json --out smoke_gof.json
esbiii diagnose --c 5 --k 0.2 --eps 0.4 --out smoke_diagnose.json
# the data's order must not reach the fit: the same file with its lines
# reversed (the comment lines move to the end, where they are skipped too)
# must give the same params, loglik, cycles and trace
tac smoke.csv > smoke_reversed.csv
esbiii fit --input smoke_reversed.csv --out smoke_reversed_fit.json
python - <<'EOF'
import json
from importlib import resources

import jsonschema

schema = json.loads(resources.files("esbiii").joinpath("schemas/output.schema.json").read_text())
for name in ("smoke_fit.json", "smoke_gof.json", "smoke_diagnose.json"):
    with open(name, encoding="utf-8") as fh:
        jsonschema.Draft202012Validator(schema).validate(json.load(fh))
    print(name, "validates")
fits = []
for name in ("smoke_fit.json", "smoke_reversed_fit.json"):
    with open(name, encoding="utf-8") as fh:
        doc = json.load(fh)
    fits.append({key: doc[key] for key in ("params", "loglik", "cycles", "trace")})
assert fits[0] == fits[1], fits
print("the reversed file gives the same fit")
EOF

# the whole-file reader on a real CLI file: 1e5 lines of "%.17g" must read
# back as the very array sample() draws.  The CLI's file has no exponent
# line, so the same values also go through "%.16e", where every line has
# one: they must read back too, and the exact pass must parse every line
esbiii sample --mu 0 --sigma 1 --c 2 --k 1 --eps -0.3 --n 100000 --seed 7 --out big.csv
python - <<'EOF'
import numpy as np

from esbiii import Params, _g17, sample
from esbiii.cli import read_values

want = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 100000, 7)
assert read_values("big.csv").tobytes() == want.tobytes()
print("the 1e5-line sample file reads back bit for bit")
np.savetxt("big_e.txt", want, fmt="%.16e")
assert read_values("big_e.txt").tobytes() == want.tobytes()
with open("big_e.txt", "rb") as fh:
    parsed = np.concatenate([p for _, _, _, p in _g17.line_values(fh.read())])
# the empty line after the last newline is not a number
assert parsed[:-1].all() and not parsed[-1], np.flatnonzero(~parsed)[:5]
print("the same values written %.16e read back bit for bit, every line parsed exactly")
EOF
