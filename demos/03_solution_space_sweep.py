"""Trace the (a, x) solution set and dump it as CSV for plotting.

Sweeping a across the critical interval traces a closed-ish loop: the x1
branch dips to (1, 2) while the x2 branch blows up near a = 1, and the two
branches meet at the tangent points (a_min, x_dagger) and (a_max,
x_dagger).  Inside the loop f < 0, outside f > 0.

Writes solution_space.csv next to this script and prints a coarse text
rendering of the same data.
"""

import contextlib
import csv
import io
import pathlib

from coshroots.cli import main as cli

buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli(["sweep", "--a-lo", "0.70", "--a-hi", "1.42", "--steps", "181",
                "--format", "csv", "--full-precision"])
assert code == 0
text = buf.getvalue()

out_path = pathlib.Path(__file__).with_name("solution_space.csv")
out_path.write_text(text)
rows = list(csv.DictReader(io.StringIO(text)))
print(f"wrote {out_path} ({len(rows)} rows)")

# coarse terminal picture: x from 0 to 40, 60 columns
print()
print("a      status       2 <-------- x --------> 40")
for row in rows[::6]:
    a = float(row["a"])
    marks = bytearray(b" " * 60)
    for key in ("x1", "x2"):
        if row[key]:
            x = float(row[key])
            if x <= 40.0:
                marks[min(59, int((x - 0.0) / 40.0 * 60))] = ord("*")
    print(f"{a:5.3f}  {row['status']:<12} |{marks.decode()}|")

print()
print("Statuses: 'no_root' outside the critical interval, 'x2_overflow'")
print("where the upper end 2x* - 2 of x2's initial bracket exceeds 1e9")
print("(|ln a| <~ 3.4e-8), 'solver_error' where the 1e-12 residual target")
print("is below the float64 floor.")
