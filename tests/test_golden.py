"""Fixture pipeline artefacts and reports pinned byte for byte.

Criterion 10 compares two runs of the same code; these hashes compare the
code with the outputs it produced before the CLI was rebuilt on the library's
``Forecast``, so a refactor that changes any artefact byte fails here. Each
subcommand's stdout report is pinned as literal text, and its stderr must be
empty.
"""

from conftest import in_process, run_fixture_pipelines

GOLDEN_SHA256 = {
    "crude/backtest.csv": "40b1b86b1e29b9c973b2a2f4ffe5adfed53a618fa046555eb4be19abfffeec3d",
    "crude/backtest.json": "3d09ce279f59eb4032aca095d8688345f7628ecc4d81370517ebc75709d4c24d",
    "crude/difference.csv": "36d1dd5cd8fdeb4b7fd60c7abe454be2bbf8dc12575b911d76a782aec2d07a70",
    "crude/forecast.csv": "e27260f8ef82ee3cce679a1b02f264036028d1a74c8ca38afbc868e520b3c122",
    "crude/forecast.json": "c4261c9fda852c914166de485fd8b45ab9ebd0b3097ca1170bb3cb7961776109",
    "crude/forecast_prices.csv": "40175a34a6ceb7673912a2f0a71b1c307eebe0f4d6ffbb3bfdceebbedddbd0f1",
    "crude/residuals.csv": "df549df338d5af7cdc11cd787c2fb1b253dead88c7460bbf8ecda931df584d23",
    "crude/translated_prices.csv": "cc38d51f4b882ecd9e6d51dcdbb440130d7b95abe09eaea3b961829074d06448",
    "crude/trend_model.json": "b5390cf608d2e5f4423c743f4036fbbd5f66ed10f9bfee5b7c994c59e2d09621",
    "motor/backtest.csv": "ed635b3d7772cadde66cc07b95f066cb55b8f83a93f4cfa841c18681e2ab6b80",
    "motor/backtest.json": "71d1f18893b0036fd457b6b42db7cdb5080c1a02458bab7e5df75a8bfae5d3a2",
    "motor/difference.csv": "d86b662ac823ceb5ea05c4721fe621bd9c03ba24fb6bd68a1f334036e8683115",
    "motor/forecast.csv": "436579f78030c825596e1effc633f6f790b43a1673991a4475a804e43c04df0c",
    "motor/forecast.json": "b43f0384e6e3a7d9cc6d946fecbd6b141cf7977ba51173c6e58a2f202c173d45",
    "motor/residuals.csv": "b5335ac6441c89e02e5dcb196f60fb875d8d10fc3789a79f2a0b9e7af61de9cd",
    "motor/trend_model.json": "1e09598be65f4f0369a96d5c3d599d9eb3d699cdf3860780aa12b0cbc9faafb9",
}

GOLDEN_STDOUT = {
    "motor diff": "difference CUSR0000SA0 - CUSR0000SETB: 372 months, 1980-01..2010-12\n",
    "motor fit": (
        "segment 0: 1980-01..1999-11  slope +4.10/yr  R^2 0.937\n"
        "segment 1: 2001-12..2008-06  slope -21.81/yr  R^2 0.978\n"
        "transition: 1999-12..2001-11 (24 months)\n"
        "transition: 2008-07..2010-12 (30 months)\n"
    ),
    "motor forecast": (
        "forecast (return-to-trend+along-trend): 2009-04..2010-12, 21 months\n"
        "terminal value -15.77\n"
    ),
    "motor backtest": (
        "origin    n   mae      rmse     bias     hit_rate\n"
        "2009-03  9   1.743    2.219    -0.117   1.00\n"
        "2009-03  baseline mae 100.698 (rmse 102.547)\n"
    ),
    "crude diff": "difference WPU00000000 - WPU0561: 312 months, 1985-01..2010-12\n",
    "crude fit": (
        "segment 0: 1988-01..1999-09  slope +2.93/yr  R^2 0.903\n"
        "segment 1: 2001-10..2007-06  slope -17.29/yr  R^2 0.969\n"
        "transition: 1999-10..2001-09 (24 months)\n"
        "transition: 2007-07..2009-06 (24 months)\n"
    ),
    "crude forecast": (
        "forecast (along-trend): 2011-01..2016-01, 61 months\n"
        "terminal value -31.15\n"
    ),
    "crude translate": "prices: 2011-01 -> 63.66 USD, 2016-01 -> 31.49 USD\n",
    "crude backtest": (
        "origin    n   mae      rmse     bias     hit_rate\n"
        "2009-01  12  0.924    1.047    +0.216   0.80\n"
    ),
}


def test_fixture_artefacts_match_golden_hashes(tmp_path):
    reports, produced = run_fixture_pipelines(tmp_path, in_process)
    assert reports == GOLDEN_STDOUT
    assert produced == GOLDEN_SHA256
