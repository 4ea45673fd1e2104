import math

import pytest

from unicolor.budget import Budget, BudgetExceededError


class TestBudgetValidation:
    @pytest.mark.parametrize("seconds", [math.nan, 0, -1.0, -math.inf, True, "5"])
    def test_time_budget_must_be_positive(self, seconds):
        with pytest.raises(ValueError, match="max_seconds"):
            Budget(max_seconds=seconds)

    @pytest.mark.parametrize("nodes", [math.nan, 2.5, 10.0, True, "5", -1])
    def test_node_budget_must_be_a_non_negative_int(self, nodes):
        with pytest.raises(ValueError, match="max_nodes"):
            Budget(max_nodes=nodes)

    def test_valid_budgets(self):
        budget = Budget(max_nodes=0, max_seconds=math.inf)
        with pytest.raises(BudgetExceededError, match="node"):
            budget.spend()
        Budget(max_seconds=0.5).check_time()
